package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"milr/internal/faults"
)

// healWarmScrubs is how many clean scrubs open every heal phase: they
// are the phase's Td samples and they warm the engine before the first
// injected fault.
const healWarmScrubs = 8

// healPhase is the write side, with no traffic: after healWarmScrubs
// clean scrubs it repeats, until d has passed, the cycle {inject the
// workload's fault under Protector.Sync, Fleet.ScrubOnce, check
// verifyAnswers answers through the gateway against the clean-weights
// oracle, restore the clean weights under Sync, ResetCRC}. Every fault
// position comes from the phase seed and the cycle number.
//
// A healed model may still miss an answer in a few hundred (recovered
// weights are float-rounded, and random inputs through random weights
// have near-ties); about one scrub in a few hundred reports a layer as
// only approximately recovered; and on CIFAR-small, where one
// checkpoint segment holds several flagged layers, about one heal in
// fifty leaves half of the answers wrong or more. All three are the
// system's stated behaviour on some fault positions, so they move
// ok_share and do not fail the run; phaseResult.correct puts a floor
// under the share of all answers that agree.
func (e *env) healPhase(ctx context.Context, h http.Handler, rec *recorder, d time.Duration, seed uint64) (*phaseResult, error) {
	res := &phaseResult{}
	deadline := time.Now().Add(d)
	for n := 0; n < healWarmScrubs; n++ {
		s, err := e.scrubOnce(ctx, rec, "clean-"+strconv.Itoa(n))
		if err != nil {
			return nil, err
		}
		res.scrubs = append(res.scrubs, s)
	}
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		e.injectFault(faults.New(subSeed(seed, n)))
		res.cycles++
		if !e.skipScrub {
			s, err := e.scrubOnce(ctx, rec, "heal-"+strconv.Itoa(n))
			if err != nil {
				return nil, err
			}
			res.scrubs = append(res.scrubs, s)
			if s.healed {
				res.healed++
			}
		}
		due := time.Now()
		reply := e.send(ctx, h, rec, "verify-"+strconv.Itoa(n), e.verify, e.oracle[:verifyAnswers])
		reply.late = reply.done - reply.latency - due.Sub(e.epoch)
		if reply.status != http.StatusOK {
			return nil, fmt.Errorf("post-heal verify request answered %d", reply.status)
		}
		res.reqs = append(res.reqs, reply)
		res.answers += verifyAnswers
		res.agree += int(reply.agree)
		res.cycleAgree = append(res.cycleAgree, int(reply.agree))
		if 2*reply.agree > verifyAnswers {
			res.okCycles++
		}
		if err := e.restoreClean(); err != nil {
			return nil, err
		}
		res.cycleDur = append(res.cycleDur, time.Since(t0))
	}
	return res, nil
}

// injectFault corrupts the served model the way the workload says.
// Every mutation sits inside the Protector.Sync callback: the engine's
// mutation gate, so the fault lands between scrubs and batches and
// never in the middle of one.
func (e *env) injectFault(in *faults.Injector) {
	e.prot.Sync(func() {
		if e.wl.overwriteDense {
			in.OverwriteLayer(largestDense(e.model))
			return
		}
		in.FlipExactBits(e.model, e.wl.flipBits)
	})
}

// restoreClean puts the clean weights and the initialization-time CRC
// codes back, so that every cycle starts from the same model (recovery
// refreshes the codes against the float-rounded recovered weights).
func (e *env) restoreClean() error {
	var err error
	e.prot.Sync(func() { err = e.model.Restore(e.clean) })
	if err != nil {
		return fmt.Errorf("restore clean weights: %w", err)
	}
	e.prot.ResetCRC()
	return nil
}
