package lint

// Exception is one deliberate, justified deviation from a rule: the
// rule name, the module-relative file path (or directory prefix ending
// in "/"), and why the deviation is sound. Run drops findings covered
// by an entry; RunDetailed reports entries that cover nothing, so dead
// exceptions fail the lint instead of accreting.
type Exception struct {
	// Rule is the analyzer name the exception applies to.
	Rule string
	// Path is an exact module-relative file path, or a directory
	// prefix ending in "/".
	Path string
	// Why records the justification — every entry must have one.
	Why string
}

// exceptions is the repository's allowlist. Keep entries narrow (one
// file where possible) and justified; an entry that stops matching any
// finding is reported by RunDetailed and must be deleted.
var exceptions = []Exception{
	// nakedgo: approved long-lived driver loops, each with a recorded
	// shutdown story. These are not data-parallel fan-out — they are
	// one goroutine per subsystem with an explicit join.
	{Rule: "nakedgo", Path: "internal/fleet/fleet.go",
		Why: "the tree's one dispatcher goroutine + guard loop, both joined by Close (drain-on-close contract)"},
	{Rule: "nakedgo", Path: "cmd/milr-gateway/main.go",
		Why: "http.Serve error pump, joined by Shutdown in the drain sequence"},
	{Rule: "nakedgo", Path: "cmd/milr-fleet/main.go",
		Why: "fault-injection ticker, stopped via its channel before exit"},
	{Rule: "nakedgo", Path: "internal/bench/fleetload.go",
		Why: "closed-loop client swarm per model spec: one goroutine per simulated client IS the load model (a pool cap below clients would falsify it); joined by WaitGroup"},
	{Rule: "nakedgo", Path: "internal/bench/openloop.go",
		Why: "the one open-loop arrival engine (milr-fleet -open-loop, soak windows): one goroutine per scheduled arrival IS the load model; joined by WaitGroup before RunOpenLoop returns"},
	{Rule: "nakedgo", Path: "internal/soak/harness.go",
		Why: "Overlap-mode scrub runs concurrently with the window's traffic by design; joined via scrubCh before the window's metrics are read"},

	// syncgate: campaign cells mutate models they exclusively own.
	{Rule: "syncgate", Path: "internal/bench/",
		Why: "campaign cells mutate Env.Clone models owned by exactly one goroutine for the cell's lifetime; nothing serves from them (byte-identity across worker counts is pinned by shard tests)"},
}
