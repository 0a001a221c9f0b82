// Package faults implements the paper's three error-injection experiments
// (§V-A): "(1) inject bit errors a probability of p (i.e. Raw Bit Error
// Rates (RBER)), (2) inject whole-weight errors with a probability of q,
// and (3) corrupt entire layers", plus the ciphertext-space model where
// bit flips land in AES-XTS ciphertext and decrypt into concentrated
// multi-bit plaintext errors.
//
// Bit flips are applied "regardless of bit position and role (each 32-bit
// float parameter has sign, magnitude and mantissa)". Sampling uses
// geometric skipping so RBER values as low as 1e-7 over millions of bits
// cost O(#flips), not O(#bits).
//
// Concurrency: injectors write protected weights directly, so any use
// concurrent with a fleet guard scrub or a serving batch must be routed
// through Protector.Sync — the mutation gate the soak tests model (see
// ARCHITECTURE.md).
package faults
