package experiments

import (
	"context"
	"fmt"

	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/metrics"
	"sensornet/internal/reliable"
)

// CostFunctions realises the paper's concluding proposal: measure the
// real time and energy costs t_f(ρ), e_f(ρ) of a *reliable* broadcast
// (i.e. of implementing CFM on top of CAM) as functions of node
// density, for the two §3.2.1 realisations — ACK/retransmit and TDMA.
//
// The resulting cost functions are what a refined CFM would plug in so
// that collision pressure is visible to high-level algorithm design
// without exposing the collisions themselves.
func CostFunctions(ctx context.Context, eng *engine.Engine, pre Preset, seeds int) (*FigureResult, error) {
	return runStudy(ctx, eng)(costStudy(pre, seeds))
}

// costStudy is one ACK cell per density, over at least one deployment.
func costStudy(pre Preset, seeds int) (study, error) {
	return cellStudy[ackCell]{ackCells("costfn", pre, max(seeds, 1), true), func(aggs []ackCell) (*FigureResult, error) {
		f := &FigureResult{ID: "costfn",
			Title:  "Empirical CFM cost functions t_f(rho), e_f(rho)",
			Series: map[string][]float64{}}
		t := Table{Title: "cost per reliable local broadcast (means over deployments)"}
		t.Header = []string{"rho", "ACK t_f (slots)", "ACK e_f (tx)", "TDMA frame",
			"TDMA t_f (slots)", "TDMA e_f (tx)"}

		var ackT, ackE, tdmaT []float64
		for i, rho := range pre.Rhos {
			mSlots := metrics.Summarize(aggs[i].Slots).Mean
			mTxs := metrics.Summarize(aggs[i].Txs).Mean
			mFrame := metrics.Summarize(aggs[i].Frames).Mean
			tdmaTime := mFrame/2 + 1
			t.Add(fmt.Sprintf("%g", rho), fmtF1(mSlots), fmtF1(mTxs),
				fmtF1(mFrame), fmtF1(tdmaTime), "1.0")
			ackT = append(ackT, mSlots)
			ackE = append(ackE, mTxs)
			tdmaT = append(tdmaT, tdmaTime)
		}
		f.Series["ackTime"] = ackT
		f.Series["ackEnergy"] = ackE
		f.Series["tdmaTime"] = tdmaT
		f.Tables = []Table{t}
		f.Notes = append(f.Notes,
			"both realisations of CFM pay density-dependent costs: ACK in energy and time, TDMA in frame latency",
			"a CFM with these cost functions retains its programming simplicity while pricing collisions honestly (paper §6)")
		return f, nil
	}}, nil
}

// ackCell is the cached outcome of one density's reliable broadcasts,
// one sample per deployment: the slots and transmissions of each ACK
// broadcast from the centre that completed and, for the TDMA column,
// each deployment's frame length.
type ackCell struct {
	Slots  []float64 `json:"slots"`
	Txs    []float64 `json:"txs"`
	Frames []float64 `json:"frames"`
}

// ackCells builds one cached ACK cell per density of pre, each measuring
// reliable broadcasts on seeds deployments. Deployment i and its ACK
// stream are drawn from streams named after the study ("<study>-deploy",
// "<study>-ack") at seed i; tdma also schedules each deployment.
func ackCells(study string, pre Preset, seeds int, tdma bool) []engine.Job {
	cells := make([]engine.Job, len(pre.Rhos))
	for i, rho := range pre.Rhos {
		cells[i] = engine.JobFunc{
			JobName:  fmt.Sprintf("%s(rho=%g)", study, rho),
			Key:      engine.Fingerprint("ack-cell", CacheSalt, study, pre.P, pre.S, rho, seeds, tdma),
			EncodeFn: encodeCell[ackCell],
			DecodeFn: decodeCell[ackCell],
			Fn: func(ctx context.Context) (any, error) {
				var c ackCell
				for seed := int64(0); seed < int64(seeds); seed++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					dep, err := deploy.Generate(deploy.Config{P: pre.P, Rho: rho, WithSensing: tdma},
						seededRand(engine.DeriveSeed(seed, study+"-deploy", rho)))
					if err != nil {
						return nil, err
					}
					ack, err := reliable.AckBroadcast(dep, 0, reliable.AckConfig{
						Window: pre.S, Adaptive: true,
						Seed: engine.DeriveSeed(seed, study+"-ack", rho),
					})
					if err != nil {
						return nil, err
					}
					if ack.Complete {
						c.Slots = append(c.Slots, float64(ack.Slots))
						c.Txs = append(c.Txs, float64(ack.Transmissions))
					}
					if tdma {
						sched, err := reliable.BuildTDMA(dep)
						if err != nil {
							return nil, err
						}
						c.Frames = append(c.Frames, float64(sched.FrameLen))
					}
				}
				return c, nil
			},
		}
	}
	return cells
}
