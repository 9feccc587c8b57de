package analytic

import "sensornet/internal/metrics"

// CFMFlooding returns the closed-form performance of simple flooding
// under the Collision Free Model (§4): every transmission succeeds, so
// the packet advances one ring per phase, reaches every node, and costs
// exactly one broadcast per node. It is the refined CFM at unit costs
// with one-slot phases.
//
// The returned timeline has the same shape as a CAM evaluation so the
// two models can be compared through the same metric extraction code.
func CFMFlooding(p int, rho float64) metrics.Timeline {
	return CFMFloodingWithCosts(p, 1, rho, UnitCostModel())
}
