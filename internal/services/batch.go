package services

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/grid"
)

// InvokeBatch submits several invocations of the same wrapped code as a
// single grid job — the "grouping jobs of a single service" optimization
// the paper leaves as future work (Sec. 5.4): it trades data parallelism
// for a reduction of the per-job overhead, letting the enactor adapt the
// job granularity to the grid load.
//
// The batch job runs the invocations in sequence: its compute time is
// their sum, it declares every invocation's outputs, and shared input
// files are staged once. done receives one Response per request, in
// order, all sharing the one job; on failure every response carries the
// error (the grid retries transparently first, as for any job).
func (w *Wrapper) InvokeBatch(reqs []Request, done func([]Response)) {
	if len(reqs) == 0 {
		panic("services: InvokeBatch with no requests")
	}
	if len(reqs) == 1 {
		w.Invoke(reqs[0], func(r Response) { done([]Response{r}) })
		return
	}
	var (
		stageIns   = make([]string, 0, len(reqs)*w.staged)
		decls      = make([]grid.FileDecl, 0, len(reqs)*len(w.outs))
		runtime    time.Duration
		outputSets = make([]map[string]string, len(reqs))
		first      string
	)
	for i, req := range reqs {
		key, outputs, grown := w.bind(req, decls)
		decls = grown
		if i == 0 {
			first = key
		}
		var err error
		if stageIns, err = w.desc.AppendStageIns(stageIns, req.Inputs); err != nil {
			done(failAll(len(reqs), err))
			return
		}
		outputSets[i] = outputs
		runtime += w.run(req)
	}
	spec := grid.JobSpec{
		Name:    w.Name() + "[batch:" + strconv.Itoa(len(reqs)) + ":" + first + "]",
		Inputs:  dedup(stageIns),
		Outputs: decls,
		Runtime: runtime,
	}
	w.g.Submit(spec, func(rec *grid.JobRecord) {
		resps := make([]Response, len(reqs))
		for i := range resps {
			resps[i].Job = rec
			if rec.Status != grid.StatusCompleted {
				resps[i].Err = fmt.Errorf("services: %s batch: %w", w.Name(), rec.Err)
			} else {
				resps[i].Outputs = outputSets[i]
			}
		}
		done(resps)
	})
}

func failAll(n int, err error) []Response {
	resps := make([]Response, n)
	for i := range resps {
		resps[i].Err = err
	}
	return resps
}
