package main

import (
	"context"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// The open-loop schedule is a pure function of its seed: the same seed
// gives the same due times and input picks, another seed another
// schedule, and the arrivals are a Poisson process at the stated rate,
// conditioned on its count.
func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, inputs = 500.0, 64
	d := 4 * time.Second
	a := poissonSchedule(7, rate, d, inputs)
	if b := poissonSchedule(7, rate, d, inputs); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different schedules")
	}
	if c := poissonSchedule(8, rate, d, inputs); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if got, want := len(a), int(rate*d.Seconds()); got != want {
		t.Fatalf("%v arrivals in %v at %v/s, want %v", got, d, rate, want)
	}
	// Random arrivals, not a comb: the gaps' standard deviation is near
	// their mean, as an exponential distribution's is.
	var sum, sumSq float64
	for i := 1; i < len(a); i++ {
		g := (a[i].due - a[i-1].due).Seconds()
		sum += g
		sumSq += g * g
	}
	n := float64(len(a) - 1)
	mean := sum / n
	if sd := math.Sqrt(sumSq/n - mean*mean); sd < 0.8*mean || sd > 1.2*mean {
		t.Fatalf("gaps have mean %v and standard deviation %v, want them close", mean, sd)
	}
	var prev time.Duration
	seen := map[int]bool{}
	for i, arr := range a {
		if arr.due < prev || arr.due >= d {
			t.Fatalf("arrival %d due at %v: want ascending and inside %v", i, arr.due, d)
		}
		if arr.input < 0 || arr.input >= inputs {
			t.Fatalf("arrival %d picks input %d of %d", i, arr.input, inputs)
		}
		prev = arr.due
		seen[arr.input] = true
	}
	if len(seen) < inputs/2 {
		t.Fatalf("schedule picked only %d of %d inputs", len(seen), inputs)
	}
}

// An open-loop request is timed from the moment it was due, not from
// the moment it was sent: a handler that stalls makes every latency at
// least the stall, lateness is reported apart from latency, and every
// request sent is accounted for as succeeded or failed.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ctx := context.Background()
	e, err := newEnv(ctx, workload{name: "open-tiny", kind: openLoop, network: "tiny", protected: true}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	const stall = 20 * time.Millisecond
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		e.plain.ServeHTTP(w, r)
	})
	res, err := e.runPhase(ctx, slow, nil, 500*time.Millisecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := poissonSchedule(11, openRate, 500*time.Millisecond, inputsPerModel)
	if len(res.reqs) != len(want) {
		t.Fatalf("sent %d requests, the schedule has %d", len(res.reqs), len(want))
	}
	ok := 0
	for i, r := range res.reqs {
		if r.late < 0 {
			t.Fatalf("request %d fired %v before it was due", i, -r.late)
		}
		if r.latency < stall+r.late {
			t.Fatalf("request %d: latency %v is not measured from its due time (stall %v, fired %v late)", i, r.latency, stall, r.late)
		}
		if r.ok {
			ok++
		}
	}
	if ok != res.okOps() || res.ops() != ok+res.failedOps() {
		t.Fatalf("sent %d != ok %d + failed %d", res.ops(), res.okOps(), res.failedOps())
	}
	if ok != len(res.reqs) {
		t.Fatalf("%d of %d requests failed on clean weights", len(res.reqs)-ok, len(res.reqs))
	}
	if len(res.scrubs) == 0 || len(res.cleanScrubs()) != len(res.scrubs) {
		t.Fatalf("%d scrubs ran beside the traffic, %d clean: want at least one, all clean", len(res.scrubs), len(res.cleanScrubs()))
	}
}

// A request workload's numbers come from the quietest third of its
// slices: a neighbour that slows two thirds of the window moves
// neither the rate nor the latency, a slower program moves both.
func TestSteadyReadsTheQuietSlices(t *testing.T) {
	window := 6 * sliceLen
	// perSlice[i] requests complete in slice i, each taking latency[i].
	phase := func(perSlice []int, latency []time.Duration) *phaseResult {
		p := &phaseResult{kind: closedLoop, window: window, elapsed: window}
		for i, n := range perSlice {
			for k := 0; k < n; k++ {
				done := time.Duration(i)*sliceLen + time.Duration(k+1)*sliceLen/time.Duration(n+1)
				p.reqs = append(p.reqs, reqSample{latency: latency[i], done: done, ok: true})
			}
		}
		return p
	}
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	quiet := phase([]int{100, 100, 100, 100, 100, 100}, ms(10, 10, 10, 10, 10, 10)).steady()
	noisy := phase([]int{100, 50, 60, 100, 40, 70}, ms(10, 20, 17, 10, 25, 14)).steady()
	if quiet.throughput != 100 || quiet.p50 != 10 {
		t.Fatalf("quiet window: %v req/s at p50 %v ms, want 100 and 10", quiet.throughput, quiet.p50)
	}
	if noisy.throughput != quiet.throughput || noisy.p50 != quiet.p50 {
		t.Fatalf("four of six slices slowed: %v req/s at p50 %v ms, want the quiet window's %v and %v",
			noisy.throughput, noisy.p50, quiet.throughput, quiet.p50)
	}
	slower := phase([]int{80, 80, 80, 80, 80, 80}, ms(12, 12, 12, 12, 12, 12)).steady()
	if slower.throughput != 80 || slower.p50 != 12 {
		t.Fatalf("slower program: %v req/s at p50 %v ms, want 80 and 12", slower.throughput, slower.p50)
	}
	if got := len(noisy.rates); got != 6 {
		t.Fatalf("%d slices, want 6", got)
	}
}

// The sample store hands back what was put, in mapped memory, and
// says so when it is full.
func TestSampleStore(t *testing.T) {
	st, err := newSampleStore(3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for i := 0; i < 3; i++ {
		if !st.put(reqSample{bytes: int32(i), ok: true}) {
			t.Fatalf("put %d refused with room left", i)
		}
	}
	if st.put(reqSample{}) {
		t.Fatal("put into a full store succeeded")
	}
	got := st.samples()
	if len(got) != 3 || got[2].bytes != 2 || !got[0].ok {
		t.Fatalf("samples %+v, want the three that were put", got)
	}
}
