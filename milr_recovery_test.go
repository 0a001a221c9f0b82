package milr_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"milr"
	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/prng"
)

// recoveryNet bundles one protected model with probe inputs and their
// clean answers — the baseline a heal must return the model to.
type recoveryNet struct {
	model *milr.Model
	prot  *milr.Protector
	xs    []*milr.Tensor
	want  []int
}

func buildRecoveryNet(t *testing.T, rt *milr.Runtime, seed uint64, n int) recoveryNet {
	t.Helper()
	m, err := milr.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(seed)
	rn := recoveryNet{model: m, xs: make([]*milr.Tensor, n), want: make([]int, n)}
	stream := prng.New(seed + 900)
	for i := range rn.xs {
		rn.xs[i] = stream.Tensor(28, 28, 1)
		rn.want[i], err = m.Predict(rn.xs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	rn.prot, err = rt.Protect(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	return rn
}

// TestRecoveryPipelineBitIdentity is the recovery pipeline's façade-
// level acceptance test, mirroring TestFleetBitIdentity's structure: two
// identically built, identically corrupted MNIST nets — one healed on a
// WithWorkers(n) runtime, one on a serial WithWorkers(0) runtime — must
// end with bit-identical weights, identical detection/recovery reports,
// and identical predictions. (The comparison against the per-layer
// oracle is internal/core's TestBatchedSequentialRecoveryEquivalence,
// case mnist-128flips: the same model, seed and corruption.)
func TestRecoveryPipelineBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx := context.Background()
			pooledRT := milr.NewRuntime(milr.WithSeed(42), milr.WithWorkers(workers))
			serialRT := milr.NewRuntime(milr.WithSeed(42), milr.WithWorkers(0))

			const probes = 8
			pooled := buildRecoveryNet(t, pooledRT, 5, probes)
			serial := buildRecoveryNet(t, serialRT, 5, probes)

			// Identical corruption on both models, through the engine
			// lock: several flagged layers per checkpoint segment, so the
			// sweeps genuinely amortize.
			for _, rn := range []recoveryNet{pooled, serial} {
				rn := rn
				rn.prot.Sync(func() {
					faults.New(4242).FlipExactBits(rn.model, 128)
				})
			}

			detP, recP, err := pooled.prot.SelfHealContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			detS, recS, err := serial.prot.SelfHealContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !detP.HasErrors() {
				t.Fatal("corruption was not detected; bit-identity test is vacuous")
			}
			if !reflect.DeepEqual(detP, detS) {
				t.Errorf("detection reports differ\n pooled %+v\n serial %+v", detP.Findings, detS.Findings)
			}
			if !reflect.DeepEqual(recP, recS) {
				t.Errorf("recovery reports differ\n pooled %+v\n serial %+v", recP.Results, recS.Results)
			}

			snapP, snapS := pooled.model.Snapshot(), serial.model.Snapshot()
			for li, ws := range snapS {
				pd, sd := snapP[li].Data(), ws.Data()
				for i := range sd {
					if pd[i] != sd[i] {
						t.Fatalf("layer %d weight %d differs: pooled %v, serial %v", li, i, pd[i], sd[i])
					}
				}
			}
			for i := range pooled.xs {
				got, err := pooled.model.Predict(pooled.xs[i])
				if err != nil {
					t.Fatal(err)
				}
				want, err := serial.model.Predict(serial.xs[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("probe %d: pooled-healed answer %d, serial-healed %d", i, got, want)
				}
			}
		})
	}
}

// TestFleetGuardScrubRacesClose pins the guard/drain/close interplay
// the fleet promises: a round-robin guard scrub parked behind a model's
// engine lock, admitted traffic draining at the same gate, and a
// concurrent Fleet.Close must all resolve without deadlock — every
// admitted request answered, the guard loop joined, no admission after
// close. (The serve-level drain was already pinned; this is the
// fleet-guard variant.)
func TestFleetGuardScrubRacesClose(t *testing.T) {
	ctx := context.Background()
	net := buildFleetNet(t, "m", milr.NewTinyNet, 19, 4)
	rt := milr.NewRuntime(
		milr.WithSeed(19),
		milr.WithWorkers(2),
		milr.WithBatchSize(2),
		milr.WithMaxBatchDelay(0),
	)
	prot, err := rt.Protect(ctx, net.model)
	if err != nil {
		t.Fatal(err)
	}
	fl := milr.NewFleet(rt)
	if err := fl.RegisterProtected("m", prot, milr.WithModelWeight(1)); err != nil {
		t.Fatal(err)
	}
	if err := fl.StartGuard(ctx, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Park the engine: guard scrub cycles and inference batches now
	// queue up behind the Sync gate, exactly as during a long
	// self-heal.
	lockHeld := make(chan struct{})
	releaseLock := make(chan struct{})
	go prot.Sync(func() {
		close(lockHeld)
		<-releaseLock
	})
	<-lockHeld

	// Admit traffic that must survive the close, then give the guard
	// ticker time to fire so a scrub is (very likely) parked at the
	// engine lock when Close begins. The test must hold regardless of
	// whether the scrub actually made it to the lock.
	results := make(chan error, len(net.xs))
	for i := range net.xs {
		i := i
		go func() {
			class, err := fl.Predict(ctx, "m", net.xs[i])
			if err == nil && class != net.want[i] {
				err = fmt.Errorf("request %d: routed answer %d, direct answer %d", i, class, net.want[i])
			}
			results <- err
		}()
	}
	waitFleet(t, fl, func(s milr.FleetStats) bool { return s.Models["m"].Admitted == int64(len(net.xs)) })
	time.Sleep(5 * time.Millisecond)

	// Close mid-drain while the engine is still parked, then release
	// the lock: the drain, the parked scrub, and the guard loop must
	// all unwind.
	closed := make(chan error, 1)
	go func() { closed <- fl.Close() }()
	time.Sleep(2 * time.Millisecond)
	close(releaseLock)

	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fleet.Close deadlocked against the guard scrub / drain")
	}
	for range net.xs {
		if err := <-results; err != nil {
			t.Fatalf("admitted request not drained cleanly: %v", err)
		}
	}
	if _, err := fl.Predict(ctx, "m", net.xs[0]); err == nil {
		t.Fatal("admission after Close succeeded")
	}
	st := fl.Stats()
	if st.Served != int64(len(net.xs)) {
		t.Fatalf("served %d, want %d (stats %+v)", st.Served, len(net.xs), st)
	}
}

// TestProtectRefusesNonFiniteWeight checks that initialization refuses a
// model whose weights are already NaN or +Inf, in the tiny net's first
// conv, first dense and first bias layer, with an error that errors.Is
// matches to ErrNonFiniteWeight (its text names the layer and the
// index), and that the same net, clean, still protects.
func TestProtectRefusesNonFiniteWeight(t *testing.T) {
	rt := milr.NewRuntime(milr.WithSeed(42))
	kinds := map[string]func(milr.Layer) bool{
		"conv":  func(l milr.Layer) bool { _, ok := l.(*nn.Conv2D); return ok },
		"dense": func(l milr.Layer) bool { _, ok := l.(*nn.Dense); return ok },
		"bias":  func(l milr.Layer) bool { _, ok := l.(*nn.Bias); return ok },
	}
	for kind, is := range kinds {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
			m, err := milr.NewTinyNet()
			if err != nil {
				t.Fatal(err)
			}
			m.InitWeights(7)
			idx := slices.IndexFunc(m.Layers(), is)
			if idx < 0 {
				t.Fatalf("tiny net has no %s layer", kind)
			}
			data := m.Layer(idx).(milr.Parameterized).Params().Data()
			data[len(data)/2] = bad
			_, err = rt.Protect(context.Background(), m)
			if !errors.Is(err, milr.ErrNonFiniteWeight) {
				t.Fatalf("%s %v: Protect error %v, want ErrNonFiniteWeight", kind, bad, err)
			}
			t.Logf("%s %v: %v", kind, bad, err)
		}
	}
	m, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(7)
	if _, err := rt.Protect(context.Background(), m); err != nil {
		t.Fatalf("clean tiny net: %v", err)
	}
}
