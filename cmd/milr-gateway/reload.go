package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"milr"
	"milr/internal/gateway"
	"milr/internal/zoo"
)

// namedSpec is one models-config entry: a gateway.ModelSpec plus the
// fleet registration name, flattened into one JSON object.
type namedSpec struct {
	Name string `json:"name"`
	gateway.ModelSpec
}

// modelsFile is the JSON schema of -models-config:
//
//	{"models":[{"name":"tiny","network":"tiny","seed":42,"weight":1,"queue_cap":64},...]}
type modelsFile struct {
	Models []namedSpec `json:"models"`
}

// loadModelsConfig reads a models config file and validates it with
// parseModelsConfig; errors carry the path.
func loadModelsConfig(path string) ([]namedSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := parseModelsConfig(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

// parseModelsConfig validates a models config document: every entry
// needs a unique non-empty name and a network the zoo knows, so a boot
// or a reload either applies cleanly or rejects the whole file before
// touching the fleet.
func parseModelsConfig(raw []byte) ([]namedSpec, error) {
	var mf modelsFile
	if err := gateway.DecodeStrict(bytes.NewReader(raw), &mf); err != nil {
		return nil, err
	}
	if len(mf.Models) == 0 {
		return nil, fmt.Errorf("no models declared")
	}
	seen := map[string]bool{}
	for _, s := range mf.Models {
		if s.Name == "" {
			return nil, fmt.Errorf("model entry without a name")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("duplicate model name %q", s.Name)
		}
		seen[s.Name] = true
		if _, err := zoo.Lookup(s.Network); err != nil {
			return nil, fmt.Errorf("model %q: %w", s.Name, err)
		}
	}
	return mf.Models, nil
}

// fleetAdmin implements gateway.Admin over the daemon's fleet: it
// builds engines from the zoo table, registers them protected (under
// the network's cost policy) or plain depending on -guard, and
// remembers the last applied spec per model so a SIGHUP reload can diff
// the config file against the live fleet. One mutex serializes admin
// mutations (HTTP admin calls and the reload loop); serving traffic
// never takes it.
type fleetAdmin struct {
	fl    *milr.Fleet
	rt    *milr.Runtime
	guard time.Duration

	mu    sync.Mutex
	specs map[string]gateway.ModelSpec
}

// Unregister removes the named model with the fleet's zero-drop drain.
func (a *fleetAdmin) Unregister(ctx context.Context, name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.fl.Unregister(ctx, name); err != nil {
		return err
	}
	delete(a.specs, name)
	return nil
}

// Apply registers (created=true) or live-replaces (created=false) the
// named model from spec. A spec that switches the model to a different
// network architecture is applied as unregister+register, since the
// input shape changes and queued requests cannot transfer.
func (a *fleetAdmin) Apply(ctx context.Context, name string, spec gateway.ModelSpec) (bool, error) {
	if name == "" {
		return false, fmt.Errorf("%w: empty model name", gateway.ErrInvalidSpec)
	}
	net, err := zoo.Lookup(spec.Network)
	if err != nil {
		return false, fmt.Errorf("%w: %w", gateway.ErrInvalidSpec, err)
	}
	m, err := net.Build(spec.Seed)
	if err != nil {
		return false, err
	}
	var opts []milr.ModelOption
	if spec.Weight > 0 {
		opts = append(opts, milr.WithModelWeight(spec.Weight))
	}
	if spec.QueueCap != 0 {
		opts = append(opts, milr.WithModelQueueCap(spec.QueueCap))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cur, exists := a.specs[name]
	if exists && cur.Network != spec.Network {
		if err := a.fl.Unregister(ctx, name); err != nil {
			return false, err
		}
		delete(a.specs, name)
		exists = false
	}
	var pr *milr.Protector
	if a.guard > 0 {
		if pr, err = a.protect(ctx, net, m); err != nil {
			return false, fmt.Errorf("protect %s: %w", name, err)
		}
	}
	switch {
	case pr != nil && exists:
		err = a.fl.ReplaceProtected(ctx, name, pr, opts...)
	case pr != nil:
		err = a.fl.RegisterProtected(name, pr, opts...)
	case exists:
		err = a.fl.Replace(ctx, name, m, opts...)
	default:
		err = a.fl.Register(name, m, opts...)
	}
	if err != nil {
		return false, err
	}
	a.specs[name] = spec
	return !exists, nil
}

// protect runs MILR initialization on m under net's cost policy, so
// the daemon plans a network exactly as milr-inspect prints it.
func (a *fleetAdmin) protect(ctx context.Context, net zoo.Network, m *milr.Model) (*milr.Protector, error) {
	return a.rt.With(milr.WithMaxFullSolveTaps(net.MaxFullSolveTaps)).Protect(ctx, m)
}

// reload re-reads the models config file and diffs it against the live
// fleet — the tdns-combiner config-watch idiom: models that left the
// file are unregistered (zero-drop drain), new entries are registered,
// and entries whose spec changed are live-replaced. A file that fails
// validation rejects the whole reload and leaves the fleet untouched.
func (a *fleetAdmin) reload(ctx context.Context, path string) error {
	specs, err := loadModelsConfig(path)
	if err != nil {
		return err
	}
	wanted := make(map[string]gateway.ModelSpec, len(specs))
	for _, s := range specs {
		wanted[s.Name] = s.ModelSpec
	}
	a.mu.Lock()
	current := make(map[string]gateway.ModelSpec, len(a.specs))
	for name, s := range a.specs {
		current[name] = s
	}
	a.mu.Unlock()
	for name := range current {
		if _, keep := wanted[name]; !keep {
			if err := a.Unregister(ctx, name); err != nil {
				return fmt.Errorf("unregister %s: %w", name, err)
			}
			log.Printf("milr-gateway: reload: unregistered %s", name)
		}
	}
	for _, s := range specs {
		if cur, ok := current[s.Name]; ok && cur == s.ModelSpec {
			continue
		}
		created, err := a.Apply(ctx, s.Name, s.ModelSpec)
		if err != nil {
			return fmt.Errorf("apply %s: %w", s.Name, err)
		}
		if created {
			log.Printf("milr-gateway: reload: registered %s (%s)", s.Name, s.Network)
		} else {
			log.Printf("milr-gateway: reload: replaced %s (%s)", s.Name, s.Network)
		}
	}
	return nil
}

// reloadLoop applies the models config file on every SIGHUP until ctx
// is done. A failed reload is logged and leaves the fleet serving its
// previous model set — config errors must never take traffic down.
func reloadLoop(ctx context.Context, admin *fleetAdmin, path string) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			if err := admin.reload(ctx, path); err != nil {
				log.Printf("milr-gateway: reload: %v", err)
			}
		}
	}
}
