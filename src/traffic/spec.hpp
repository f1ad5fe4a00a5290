// One strict textual grammar exposing every arrival process — the single
// construction path shared by `lgg_sim --arrival`, chaos scenarios, and
// the stability-atlas bench, replacing ad-hoc per-tool constructions.
//
//   spec      := name | name ":" pairs
//   pairs     := key "=" value ("," key "=" value)*
//
//   exact
//   scaled:factor=<f>
//   bernoulli:p=<f>
//   uniform:mean=<f>
//   poisson:mean=<f>
//   geometric:mean=<f>
//   burst:high=<f>,low=<f>,len=<u>,period=<u>
//   diurnal:mean=<f>,amp=<f>,period=<u>
//   pareto:alpha=<f>,mean=<f>
//   leaky:rho=<f>,sigma=<f>
//   token_bucket:r=<f>,b=<f>,period=<u>
//   adversary[:strategy=hoard|sweep|queue_aware][,rho=<f>][,sigma=<f>]
//            [,period=<u>][,fanout=<u>]
//
// The clause and number syntax is the shared strict grammar of
// common/spec_parse.hpp (<u> keys take plain integers, <f> keys finite
// numbers): an unknown process name, unknown/duplicate/missing key, or
// malformed number throws lgg::ContractViolation (the CLI usage contract
// maps that to exit code 2).  Adversary keys are
// optional and default to AdversaryOptions{}; every other process's keys
// are required.  Numeric validity (rho >= 0, period >= 1, ...) is then
// enforced by the process constructors under the same exception type, so
// one catch site covers both syntax and semantics.
#pragma once

#include <memory>
#include <string_view>

#include "core/arrival.hpp"

namespace lgg::traffic {

/// Parses `spec` and constructs the process.  Throws lgg::ContractViolation
/// on any syntactic or semantic error, with a message naming the problem.
[[nodiscard]] std::unique_ptr<core::ArrivalProcess> make_arrival(
    std::string_view spec);

/// One-line summary of the grammar for usage text.
[[nodiscard]] std::string_view arrival_grammar_help();

}  // namespace lgg::traffic
