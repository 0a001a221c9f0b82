package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"milr"
	"milr/internal/gateway"
	"milr/internal/obs"
	"milr/internal/par"
	"milr/internal/prng"
)

// reqSample is one request the generator sent. It holds no pointer and
// is kept small: a closed-loop window stores a hundred thousand of them.
type reqSample struct {
	latency time.Duration // closed loop: from send; open loop: from the due time
	done    time.Duration // when ServeHTTP returned, since the env's epoch
	late    time.Duration // how long after it was due the request was fired (due: open loop, the schedule; closed loop, the previous reply)
	bytes   int32         // request body size
	status  int16         // HTTP status; 0 = shed by the generator (in-flight cap reached)
	agree   int16         // answers equal to the oracle's (a batch body carries several)
	ok      bool          // 200 and every answer equals the oracle's
}

// sampleStore keeps a closed-loop phase's samples outside the Go heap,
// in anonymous mapped memory. On the heap they would be live data that
// grows all through the window: the collector would pace itself by the
// benchmark's bookkeeping (at GOGC=100 every stored byte buys another
// of heap growth), run less and less often as the window went on, and
// peak memory would count the samples two or three times over. Here
// they cost the bytes they occupy and the program's collector sees only
// the program.
type sampleStore struct {
	mem  []byte
	buf  []reqSample
	next atomic.Int64
}

func newSampleStore(capacity int) (*sampleStore, error) {
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(reqSample{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample store: %w", err)
	}
	return &sampleStore{mem: mem, buf: unsafe.Slice((*reqSample)(unsafe.Pointer(&mem[0])), capacity)}, nil
}

// put stores one sample; false means the store is full.
func (s *sampleStore) put(r reqSample) bool {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.buf)) {
		return false
	}
	s.buf[i] = r
	return true
}

// samples returns what was stored; call it after the writers are done.
func (s *sampleStore) samples() []reqSample {
	return s.buf[:min(s.next.Load(), int64(len(s.buf)))]
}

// close unmaps the store; its samples must not be read afterwards.
func (s *sampleStore) close() {
	// Unmapping only fails on arguments that Mmap did not return.
	_ = syscall.Munmap(s.mem)
}

// scrubSample is one Fleet.ScrubOnce call.
type scrubSample struct {
	dur      time.Duration
	detected bool
	healed   bool // detected and verified clean afterwards
	clean    bool // nothing detected
}

// phaseResult is what one phase (warm-up, reference or measured window)
// of any workload kind produced.
type phaseResult struct {
	kind       kind
	start      time.Duration // since the env's epoch
	window     time.Duration // nominal length; elapsed also has the in-flight tail
	elapsed    time.Duration
	allocBytes uint64 // runtime.MemStats.TotalAlloc delta over the phase
	reqs       []reqSample
	store      *sampleStore // where reqs live on a closed-loop phase, nil otherwise
	scrubs     []scrubSample
	// heal cycles only
	cycles     int             // cycles injected
	healed     int             // cycles whose ScrubResult says detected and recovered
	okCycles   int             // cycles after which most answers equal the oracle's: throughput counts these
	cycleDur   []time.Duration // per cycle, from the injection to the restored model
	cycleAgree []int           // per cycle, post-heal answers equal to the oracle's
	answers    int             // post-heal answers checked against the oracle
	agree      int             // of those, equal to the oracle's
}

// ops is the number of operations attempted: requests sent, or heal
// cycles injected.
func (p *phaseResult) ops() int {
	if p.kind == healCycle {
		return p.cycles
	}
	return len(p.reqs)
}

// okOps is the number of operations that succeeded: correct answers,
// or cycles that left a model answering like the clean one.
func (p *phaseResult) okOps() int {
	if p.kind == healCycle {
		return p.okCycles
	}
	n := 0
	for _, r := range p.reqs {
		if r.ok {
			n++
		}
	}
	return n
}

// failedOps counts failed operations: failed, refused or wrongly
// answered requests. A heal cycle does not fail (a scrub or verify
// request that errors aborts the run): how well the healed model answers
// is ok_share, and correct() puts a floor under it.
func (p *phaseResult) failedOps() int {
	if p.kind == healCycle {
		return 0
	}
	return p.ops() - p.okOps()
}

// correct says whether the program's outputs were right: every request
// answered as the oracle answers, or healing restoring the model's
// answers on at least healFloor of all the inputs checked.
func (p *phaseResult) correct() bool {
	if p.kind == healCycle {
		return p.cycles > 0 && ratio(float64(p.agree), float64(p.answers)) >= healFloor
	}
	return p.ops() > 0 && p.failedOps() == 0
}

// checked is the number of answers compared with the oracle.
func (p *phaseResult) checked() int {
	if p.kind == healCycle {
		return p.answers
	}
	return len(p.reqs)
}

// okShare is the share of checked answers equal to the oracle's. On
// predict workloads that is one minus the error share. On heal
// workloads it is the post-heal agreement over the cycles that are left
// when the worst tenth of them is set aside: about one CIFAR-small heal
// in fifty leaves half of the answers wrong or more (see healPhase), so
// a window holds none to three of those, and they alone moved the plain
// share between 0.95 and 1 from seed to seed. A heal that got worse on every
// cycle, or went wrong three times as often, still shows; the plain
// share is printed beside it and correct holds a floor under it.
func (p *phaseResult) okShare() float64 {
	if p.kind != healCycle {
		return ratio(float64(p.okOps()), float64(len(p.reqs)))
	}
	kept := append([]int(nil), p.cycleAgree...)
	slices.Sort(kept)
	kept = kept[len(kept)/10:]
	agree := 0
	for _, a := range kept {
		agree += a
	}
	return ratio(float64(agree), float64(len(kept)*verifyAnswers))
}

// latencies returns the operation latencies in milliseconds, sorted:
// successful requests, or the ScrubOnce wall time (Td+Tr) of the cycles
// whose scrub detected the fault.
func (p *phaseResult) latencies() []float64 {
	var out []float64
	if p.kind == healCycle {
		for _, s := range p.scrubs {
			if s.detected {
				out = append(out, ms(s.dur))
			}
		}
	} else {
		for _, r := range p.reqs {
			if r.ok {
				out = append(out, ms(r.latency))
			}
		}
	}
	slices.Sort(out)
	return out
}

// sliceLen is the length of the slices a request workload's window is
// cut into (a window shorter than two slices is one slice).
const sliceLen = time.Second

// A timing is taken over the quietest one in quietOneIn of the slices
// (or heal cycles): the quietest third.
const quietOneIn = 3

// steady is the window's throughput and latency as the program delivers
// them when the host leaves it alone. This is a shared virtual machine:
// a neighbour slows a second, or ten, of a window by up to a half, and
// never speeds one up. So a request workload's window is cut into
// slices of sliceLen by completion time, each slice gets its own rate
// and its own p50, and the number reported is the mean over the
// quietest third of the slices: the highest rates, the lowest p50s. A
// change to the program moves every slice and so moves that mean; a
// neighbour moves the other two thirds first. Heal workloads complete
// two or three cycles a second, so there a cycle is the unit: the mean
// of the fastest third of the cycles' times. The tail (p95) stays a
// median over all slices.
type steady struct {
	throughput float64 // successful operations per second
	p50, p95   float64 // milliseconds
	samples    int     // operations behind the numbers
	// The series the numbers were taken from, in time order, for the
	// report: per slice on request workloads, per cycle on heal workloads.
	rates, p50s []float64
}

// quietMean is the mean of the quietest third of v (at least one
// value): the lowest values, or the highest when higher is quieter.
func quietMean(v []float64, higher bool) float64 {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if higher {
		slices.Reverse(s)
	}
	return mean(s[:min(max(len(s)/quietOneIn, 1), len(s))])
}

func (p *phaseResult) steady() steady {
	if p.kind == healCycle {
		var heals, cycles []float64
		for _, s := range p.scrubs {
			if s.detected {
				heals = append(heals, ms(s.dur))
			}
		}
		for _, d := range p.cycleDur {
			cycles = append(cycles, 1/d.Seconds())
		}
		lat := p.latencies()
		return steady{quietMean(cycles, true), quietMean(heals, false), quantile(lat, 0.95), len(lat), cycles, heals}
	}
	n := max(int(p.window/sliceLen), 1)
	slice := p.window / time.Duration(n)
	per := make([][]float64, n)
	ok := 0
	for _, r := range p.reqs {
		if i := int((r.done - p.start) / slice); r.ok && i >= 0 && i < n {
			per[i] = append(per[i], ms(r.latency))
			ok++
		}
	}
	st := steady{samples: ok}
	var p95 []float64
	for _, lat := range per {
		slices.Sort(lat)
		st.rates = append(st.rates, float64(len(lat))/slice.Seconds())
		if len(lat) > 0 {
			st.p50s = append(st.p50s, quantile(lat, 0.5))
			p95 = append(p95, quantile(lat, 0.95))
		}
	}
	st.throughput, st.p50, st.p95 = quietMean(st.rates, true), quietMean(st.p50s, false), median(p95)
	if p.kind == openLoop {
		// The schedule fixes the rate; it only falls when requests fail.
		st.throughput = ratio(float64(p.okOps()), p.elapsed.Seconds())
	}
	return st
}

// series renders one of steady's series for the report.
func series(v []float64, format string) string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, " "+format, x)
	}
	return b.String()
}

// cleanScrubs returns the wall times (ms, sorted) of scrubs that found
// nothing: the paper's Td.
func (p *phaseResult) cleanScrubs() []float64 {
	var out []float64
	for _, s := range p.scrubs {
		if s.clean {
			out = append(out, ms(s.dur))
		}
	}
	slices.Sort(out)
	return out
}

// sloMissShare is the share of requests sent that failed, were refused
// or shed, or took longer than sloLimit.
func (p *phaseResult) sloMissShare() float64 {
	if len(p.reqs) == 0 {
		return 0
	}
	miss := 0
	for _, r := range p.reqs {
		if !r.ok || r.latency > sloLimit {
			miss++
		}
	}
	return float64(miss) / float64(len(p.reqs))
}

func (p *phaseResult) summary() string {
	if p.kind == healCycle {
		return fmt.Sprintf("%.2f s: %d cycles injected, %d detected and recovered, %d ok, %d clean scrubs; %d of %d post-heal answers equal the oracle",
			p.elapsed.Seconds(), p.cycles, p.healed, p.okCycles, len(p.cleanScrubs()), p.agree, p.answers)
	}
	s := fmt.Sprintf("%.2f s: sent %d, ok %d, failed %d", p.elapsed.Seconds(), len(p.reqs), p.okOps(), len(p.reqs)-p.okOps())
	if p.kind == openLoop {
		s += fmt.Sprintf("; %d clean scrubs of %d", len(p.cleanScrubs()), len(p.scrubs))
	}
	return s
}

// runPhase runs one phase of the env's workload for d against handler
// h, recording the benchmark's own spans into rec when it is non-nil.
// The phase seed makes the input picks, the arrival schedule and the
// fault positions.
func (e *env) runPhase(ctx context.Context, h http.Handler, rec *recorder, d time.Duration, seed uint64) (*phaseResult, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var res *phaseResult
	var err error
	switch e.wl.kind {
	case closedLoop:
		res, err = e.closedPhase(ctx, h, rec, d, seed)
	case openLoop:
		res, err = e.openPhase(ctx, h, rec, d, seed)
	case healCycle:
		res, err = e.healPhase(ctx, h, rec, d, seed)
	}
	if err != nil {
		return nil, err
	}
	res.kind, res.start, res.window = e.wl.kind, t0.Sub(e.epoch), d
	res.elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return res, nil
}

// release returns the phase's sample store; reqs must not be read
// afterwards.
func (p *phaseResult) release() {
	if p.store != nil {
		p.store.close()
		p.store, p.reqs = nil, nil
	}
}

// maxClosedRate sizes a closed-loop phase's sample store, in requests
// per second: five times what the fastest workload reaches on this
// box. Pages of the store that are never written cost nothing.
const maxClosedRate = 50000

// closedPhase runs closedClients clients that each send their next
// request only after the previous one was answered. par.For with as
// many workers as items gives every client a goroutine of its own.
func (e *env) closedPhase(ctx context.Context, h http.Handler, rec *recorder, d time.Duration, seed uint64) (*phaseResult, error) {
	store, err := newSampleStore(int(d.Seconds()*maxClosedRate) + closedClients)
	if err != nil {
		return nil, err
	}
	var full atomic.Bool
	deadline := time.Now().Add(d)
	par.For(closedClients, closedClients, func(c int) {
		picks := prng.New(subSeed(seed, c))
		var prev time.Duration // when the previous reply arrived: the next request is due then
		for n := 0; time.Now().Before(deadline); n++ {
			i := picks.Intn(len(e.bodies))
			id := ""
			if rec != nil {
				id = "c" + strconv.Itoa(c) + "-" + strconv.Itoa(n)
			}
			s := e.send(ctx, h, rec, id, e.bodies[i], e.oracle[i:i+1])
			if n > 0 {
				s.late = s.done - s.latency - prev
			}
			prev = s.done
			if !store.put(s) {
				full.Store(true)
				return
			}
		}
	})
	if full.Load() {
		store.close()
		return nil, fmt.Errorf("sample store full after %d requests: raise maxClosedRate", len(store.buf))
	}
	return &phaseResult{reqs: store.samples(), store: store}, nil
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due   time.Duration // offset from the start of the phase
	input int
}

// poissonSchedule precomputes an open-loop arrival schedule: a Poisson
// process at the given rate over d, conditioned on its count. Exactly
// rate·d arrivals fall at independent uniform times, which is what a
// Poisson process is once its count is known, so gaps and bursts are
// those of random arrivals; what is taken out is the ±√n by which a
// free-running process would load one seed's run more than another's.
// Input picks are uniform over inputs. The same seed gives the same due
// times and the same picks.
func poissonSchedule(seed uint64, rate float64, d time.Duration, inputs int) []arrival {
	st := prng.New(seed)
	out := make([]arrival, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = arrival{due: time.Duration(st.Float64() * float64(d)), input: st.Intn(inputs)}
	}
	slices.SortFunc(out, func(a, b arrival) int { return cmp.Compare(a.due, b.due) })
	return out
}

// openPhase fires the seeded Poisson schedule regardless of how the
// system keeps up, timing each request from its due time, while a
// second goroutine runs a clean scrub every scrubEvery. In-flight
// requests are capped at the queue cap: beyond it the generator sheds
// (status 0, a failure), so overload shows as refusals and not as an
// unbounded number of goroutines.
func (e *env) openPhase(ctx context.Context, h http.Handler, rec *recorder, d time.Duration, seed uint64) (*phaseResult, error) {
	sched := poissonSchedule(seed, openRate, d, len(e.bodies))
	res := &phaseResult{reqs: make([]reqSample, len(sched))}
	pool := par.NewPool(fleetQueueCap)
	var done atomic.Bool
	var scrubErr error
	start := time.Now()
	par.For(2, 2, func(role int) {
		if role == 1 {
			res.scrubs, scrubErr = e.scrubLoop(ctx, rec, &done)
			return
		}
		defer done.Store(true)
		for n, a := range sched {
			due := start.Add(a.due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late := time.Since(due)
			if !pool.TryAcquire() {
				res.reqs[n] = reqSample{late: late, latency: late}
				continue
			}
			pool.Go(func() {
				s := e.send(ctx, h, rec, "o"+strconv.Itoa(n), e.bodies[a.input], e.oracle[a.input:a.input+1])
				s.late = late
				s.latency = s.done - due.Sub(e.epoch)
				res.reqs[n] = s // each slot has one writer; read after the join
			}, nil)
		}
		pool.Wait()
	})
	return res, scrubErr
}

// scrubLoop runs Fleet.ScrubOnce every scrubEvery until done is set.
func (e *env) scrubLoop(ctx context.Context, rec *recorder, done *atomic.Bool) ([]scrubSample, error) {
	var out []scrubSample
	tick := time.NewTicker(scrubEvery)
	defer tick.Stop()
	for n := 0; ; n++ {
		<-tick.C
		if done.Load() {
			return out, nil
		}
		s, err := e.scrubOnce(ctx, rec, "scrub-"+strconv.Itoa(n))
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// scrubOnce runs and times one Fleet.ScrubOnce; on a traced pass the
// call carries the program's tracer and is recorded as a span.
func (e *env) scrubOnce(ctx context.Context, rec *recorder, id string) (scrubSample, error) {
	if rec != nil {
		// Hand the call the program's own tracer, so the spans it already
		// records (fleet.scrub, core.detect, core.recover) land in the ring
		// under the benchmark's request identifier.
		ctx = obs.WithTracer(ctx, e.tracer, id)
	}
	t0 := time.Now()
	_, sr, err := e.fleet.ScrubOnce(ctx)
	t1 := time.Now()
	if err != nil {
		return scrubSample{}, fmt.Errorf("scrub: %w", err)
	}
	rec.add(span{Name: "fleet.scrub_once", Req: id, Start: t0, End: t1})
	return scrubSample{
		dur:      t1.Sub(t0),
		detected: sr.ErrorsDetected,
		healed:   sr.ErrorsDetected && sr.Recovered,
		clean:    !sr.ErrorsDetected && sr.Recovered,
	}, nil
}

// predictReply is the part of the gateway's predict answer the
// benchmark checks.
type predictReply struct {
	Class   *int  `json:"class"`
	Classes []int `json:"classes"`
}

// send puts one predict body through the gateway handler in-process
// (httptest request and recorder, no sockets) and checks the answer
// against want. On a traced pass it records the ServeHTTP span and the
// Backend.Predict span the timing backend stamped beneath it.
func (e *env) send(ctx context.Context, h http.Handler, rec *recorder, id string, body []byte, want []int) reqSample {
	s := reqSample{bytes: int32(len(body))}
	var bt *backendTimes
	if rec != nil {
		bt = &backendTimes{}
		ctx = context.WithValue(ctx, backendKey{}, bt)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.path, bytes.NewReader(body))
	if err != nil {
		return s // cannot happen: fixed method and path; counts as a failure
	}
	if rec != nil {
		req.Header.Set(gateway.RequestIDHeader, id)
	}
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	t1 := time.Now()
	s.status, s.done, s.latency = int16(w.Code), t1.Sub(e.epoch), t1.Sub(t0)
	if w.Code == http.StatusOK {
		var reply predictReply
		if json.Unmarshal(w.Body.Bytes(), &reply) == nil {
			got := reply.Classes
			if reply.Class != nil {
				got = []int{*reply.Class}
			}
			for i := range min(len(got), len(want)) {
				if got[i] == want[i] {
					s.agree++
				}
			}
			s.ok = len(got) == len(want) && int(s.agree) == len(want)
		}
	}
	if rec != nil {
		rec.addRequest(id, t0, t1, bt)
	}
	return s
}

// backendKey carries a request's *backendTimes to the timing backend.
type backendKey struct{}

// backendTimes is where the timing backend stamps the interval its
// Predict call covered.
type backendTimes struct {
	start, end time.Time
}

// timedBackend implements gateway.Backend over the fleet, stamping the
// interval of every Predict/PredictBatch call: the boundary between
// the gateway layer and the fleet layer. Stats and Models are the
// fleet's own.
type timedBackend struct {
	*milr.Fleet
}

// Predict implements gateway.Backend.
func (b timedBackend) Predict(ctx context.Context, model string, x *milr.Tensor) (int, error) {
	defer stampBackend(ctx)()
	return b.Fleet.Predict(ctx, model, x)
}

// PredictBatch implements gateway.Backend.
func (b timedBackend) PredictBatch(ctx context.Context, model string, xs []*milr.Tensor) ([]int, error) {
	defer stampBackend(ctx)()
	return b.Fleet.PredictBatch(ctx, model, xs)
}

// stampBackend stamps the start of a backend call into the request's
// backendTimes and returns the function that stamps its end.
func stampBackend(ctx context.Context) func() {
	bt, _ := ctx.Value(backendKey{}).(*backendTimes)
	if bt == nil {
		return func() {}
	}
	bt.start = time.Now()
	return func() { bt.end = time.Now() }
}
