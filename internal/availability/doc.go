// Package availability models the paper's availability–accuracy trade-off
// (§V-E, Equation 6, Figure 12). Running detection and recovery takes the
// network offline; running them rarely lets errors accumulate and
// accuracy degrade. "Therefore systems have to find a balance that suits
// their intended mission."
//
// The paper's Equation 6 is typeset ambiguously; the interpretation used
// here (see ARCHITECTURE.md's deviations table) keeps its structure and
// reproduces the monotone trade-off of Figure 12:
//
//   - Per error interval Tbe, the system runs detection I times and one
//     recovery, so availability a = Tbe / (Tbe + I·Td + Tr).
//   - Inverting for the detection budget: I·Td + Tr = Tbe·(1−a)/a, i.e.
//     the downtime budget shrinks as required availability grows.
//   - Fewer detection runs mean errors go unrepaired for longer; with an
//     error every Tbe and detection every Tbe/I, the expected errors
//     pending at any time is errorsPerYear/(2I) scaled to the detection
//     gap, and accuracy is A(n), assumed linear from A(0)=1 down to
//     A(expectedYearlyErrors) (the paper's stated assumption).
//
// The paper instantiates the model with a worst-case DRAM field-failure
// rate of 75,000 FIT/Mbit (Schroeder et al.), each error hitting an
// encryption word and thus a weight. The Td/Tr inputs are measured at
// the environment's configured worker count (bench.AvailabilityCurve),
// so the curve reflects what the parallel engine actually achieves, and
// the fleet's per-model ModelStats.ScrubTime is the live counterpart of
// the model's downtime numerator.
package availability
