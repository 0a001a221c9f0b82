// Package zoo is the one table of networks a flag, a models-config
// entry, an admin spec or an experiment can name: which constructor
// builds each, which paper table it reproduces, the cost policy MILR
// protects it under, and the synthetic dataset it trains on (this table
// owns that choice; internal/dataset only generates). Every binary, the
// experiment harness and the fleet example read it, so a network is
// never served under one plan and inspected or soaked under another;
// zoo_guard_test.go (module root) keeps a second table out.
package zoo

import (
	"errors"
	"fmt"
	"strings"

	"milr/internal/core"
	"milr/internal/dataset"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Network is one row of the table.
type Network struct {
	// Name is what flags, config files and admin specs call the network.
	Name string
	// Table ("Table I"; empty for tiny) and Title head the architecture.
	Table, Title string
	// New builds the model, weights uninitialised.
	New func() (*nn.Model, error)
	// MaxFullSolveTaps is the core.Options cost policy of that name:
	// 1 forces every conv layer into partial-recoverability mode, as the
	// paper requires of the large CIFAR network "to keep cost low"
	// (§V-D); 0 leaves the choice to the planner.
	MaxFullSolveTaps int
	// Data is the synthetic dataset the experiments train and evaluate
	// the network on; Seed is left zero for the caller to set.
	Data dataset.Config
}

var networks = []Network{
	{Name: "tiny", Title: "Tiny network", New: nn.NewTinyNet,
		Data: dataset.Config{Height: 12, Width: 12, Channels: 1, Classes: 4, NoiseStd: 0.15, MaxShift: 1}},
	{Name: "mnist", Table: "Table I", Title: "MNIST network", New: nn.NewMNISTNet, Data: dataset.MNISTLike(0)},
	{Name: "cifar-small", Table: "Table II", Title: "CIFAR-10 small network", New: nn.NewCIFARSmallNet, Data: dataset.CIFARLike(0)},
	{Name: "cifar-large", Table: "Table III", Title: "CIFAR-10 large network", New: nn.NewCIFARLargeNet, MaxFullSolveTaps: 1, Data: dataset.CIFARLike(0)},
}

// Names lists the network names for flag help and error messages.
func Names() string {
	var names []string
	for _, n := range networks {
		names = append(names, n.Name)
	}
	return strings.Join(names, ", ")
}

// ErrUnknownNetwork is the cause under every Lookup failure.
var ErrUnknownNetwork = errors.New("unknown network")

// Lookup returns the named row, or an error wrapping ErrUnknownNetwork
// that lists the valid names.
func Lookup(name string) (Network, error) {
	for _, n := range networks {
		if n.Name == name {
			return n, nil
		}
	}
	return Network{}, fmt.Errorf("%w %q (%s)", ErrUnknownNetwork, name, Names())
}

// Build constructs the network and initialises its weights from seed.
func (n Network) Build(seed uint64) (*nn.Model, error) {
	m, err := n.New()
	if err == nil {
		m.InitWeights(seed)
	}
	return m, err
}

// Options returns core.DefaultOptions(seed) under the network's policy.
func (n Network) Options(seed uint64) core.Options {
	opts := core.DefaultOptions(seed)
	opts.MaxFullSolveTaps = n.MaxFullSolveTaps
	return opts
}

// Instance is one -models entry: a network, its registered name, its seed.
type Instance struct {
	Name    string
	Network Network
	Seed    uint64
}

// ParseList resolves a comma-separated -models list. Entry i is seeded
// seed+i; a network listed more than once (exact entries, trimmed) is
// registered as name-1, name-2, ... in list order.
func ParseList(models string, seed uint64) ([]Instance, error) {
	entries := strings.Split(models, ",")
	count := map[string]int{}
	for i, e := range entries {
		entries[i] = strings.TrimSpace(e)
		count[entries[i]]++
	}
	seen := map[string]int{}
	out := make([]Instance, len(entries))
	for i, e := range entries {
		n, err := Lookup(e)
		if err != nil {
			return nil, err
		}
		out[i] = Instance{Name: e, Network: n, Seed: seed + uint64(i)}
		if count[e] > 1 {
			seen[e]++
			out[i].Name = fmt.Sprintf("%s-%d", e, seen[e])
		}
	}
	return out, nil
}

// Probes draws n seeded inputs and records m's answer to each: taken on
// clean weights, the oracle a load test or soak checks served answers by.
func Probes(m *nn.Model, seed uint64, n int) (inputs []*tensor.Tensor, want []int, _ error) {
	stream := prng.New(seed)
	for i := 0; i < n; i++ {
		x := stream.Tensor(m.InShape()...)
		class, err := m.Predict(x)
		if err != nil {
			return nil, nil, err
		}
		inputs, want = append(inputs, x), append(want, class)
	}
	return inputs, want, nil
}
