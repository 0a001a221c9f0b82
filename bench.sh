#!/bin/sh -e
# bench.sh — multi-CPU benchmark sweeps over the MILR engine's key
# paths, in the style of sync_gateway's bench.sh, hardened per the
# benchmark-validation protocol: a clean build sanity-checks the tree
# before any numbers are produced, every suite runs at -cpu 1,2,4 so
# scaling (or the lack of it — see BENCHMARKS.md on single-core boxes)
# is visible, and a repeated-run variance check guards against the
# stale-binary / noisy-neighbour failure mode.
#
# Usage:
#   ./bench.sh             # default: -benchtime 1x smoke + variance check
#   BENCHTIME=5s ./bench.sh    # longer, steadier numbers
#   CPUS=1,2,4,8 ./bench.sh    # wider CPU sweep

BENCHTIME="${BENCHTIME:-1x}"
CPUS="${CPUS:-1,2,4}"

echo "== clean build sanity (benchmark-validation protocol) =="
go vet ./...
go build ./...
go version
echo "GEMM kernel: $(go test ./internal/tensor -run '^TestKernelSelected$' -count=1 -v | sed -n 's/.*GEMM kernel: //p')"
git rev-parse HEAD 2>/dev/null || true

echo "== GEMM kernel scaling =="
go test ./internal/tensor -bench 'MatMulWorkers' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX

echo "== GEMM kernel on the MNIST batch-8 shapes, dense and half-zero inputs (GFLOP/s) =="
go test . -bench 'BenchmarkMatMulShapes' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX

echo "== protect-time rank probe and full-solve QR at CIFAR-small conv1's 1024x288 im2col shape =="
go test ./internal/linalg -bench 'BenchmarkFactorQR(Pivot)?$' -benchtime "$BENCHTIME" -run XXX -benchmem

echo "== architecture tables (Tables I–III) =="
go test . -bench 'BenchmarkTables1to3_Architectures' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX

echo "== batch-first inference: stacked GEMM vs per-sample loop (8 samples, MNIST) =="
go test . -bench 'BenchmarkForward(Batch|Loop)$' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX

echo "== batch-first inference on CIFAR-small (8 samples; Same-padded convs) =="
go test . -bench 'BenchmarkForwardBatchCIFARSmall$' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX -benchmem

echo "== serving: the coalesced swarm (8 clients, MNIST) with tracing off vs on =="
go test . -bench 'BenchmarkTracerOverhead' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX

echo "== RBER sweep campaign, serial vs sharded (Figure 9 path) =="
go test . -bench 'BenchmarkRBERSweepWorkers' -benchtime "$BENCHTIME" -run XXX

echo "== protect (NewProtector, workers -1) on CIFAR-small and MNIST: rank probes, dense dummy outputs, CRC codes and partials, bytes and allocations =="
go test ./internal/core -bench 'BenchmarkProtect$' -benchtime "$BENCHTIME" -run XXX -benchmem

echo "== clean scrub (Detect) on CIFAR-small and MNIST: one row probe per conv/dense layer, bytes and allocations =="
go test ./internal/core -bench 'BenchmarkDetect$' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX -benchmem

echo "== conv heal (CIFAR-small, 1024 bit flips, SelfHeal; the model's workers follow -cpu), bytes and allocations =="
go test ./internal/core -bench 'BenchmarkConvHeal$' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX -benchmem

echo "== dense heal (MNIST, the 6400x256 dense layer overwritten, SelfHeal; the model's workers follow -cpu), bytes and allocations =="
go test ./internal/core -bench 'BenchmarkDenseHeal$' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX -benchmem

echo "== detection scrub (Table X identification path; the scrub's workers follow -cpu) =="
go test . -bench 'BenchmarkTable10_Identification' -cpu "$CPUS" -benchtime "$BENCHTIME" -run XXX

# The HTTP gateway (cmd/milr-gateway, internal/gateway) is deliberately
# absent from these sweeps: it adds only JSON/transport overhead on top
# of the fleet path benchmarked above, and kernel numbers must not be
# diluted by network-stack noise. Its behaviour is pinned by tests and
# the CI gateway smoke job instead.

echo "== variance check: the architecture bench twice, same -cpu =="
go test . -bench 'BenchmarkTables1to3_Architectures' -cpu 1 -benchtime "$BENCHTIME" -run XXX -count 2
echo "If the two runs above differ wildly, do NOT trust this session's numbers."
