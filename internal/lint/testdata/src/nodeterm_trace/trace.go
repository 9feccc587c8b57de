// Package nodeterm_trace is lint testdata loaded under the rel path
// internal/trace, which is not allowlisted for wall-clock reads: the
// time.Now below must be reported.
package nodeterm_trace

import "time"

func stamp() time.Time {
	return time.Now()
}
