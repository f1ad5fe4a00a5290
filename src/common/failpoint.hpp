// Deterministic failpoints: named fault-injection sites compiled into the
// durability paths (checkpoint write/fsync/rename, manifest update,
// telemetry append, statusz write, crash-dump emit).
//
// A site is a cheap call — one atomic load when nothing is armed — that
// asks the process-wide registry "should this hit fail, and how?".  Sites
// are armed from a textual schedule (lgg_sim --failpoints, the chaos
// scenario `failpoints` stanza, or a test):
//
//   SITE:at=N[,action=error|torn|abort][,keep=K][;SITE:at=M,...]
//
//   SITE    the site name, e.g. ckpt.rename or manifest.fsync
//   at=N    fire at the Nth hit of the site (1-based), once
//   action  error  — the operation reports failure, as if the kernel
//                    returned EIO (default)
//           torn   — a write site persists only a prefix of the data and
//                    then reports failure (a short write / ENOSPC)
//           abort  — the process dies instantly via SIGKILL, before the
//                    operation runs: the kill-at-random-instant harness
//   keep=K  torn only: byte prefix to keep (default: half the content)
//
// Clauses follow the strict grammar of common/spec_parse.hpp: an unknown or
// duplicate key or a malformed count rejects the whole schedule.
//
// Triggers are one-shot (a fired trigger disarms itself) but hit counters
// keep counting, so a recovered run re-passing the same site does not
// re-fire.  Every consumed trigger is deterministic: a pure function of
// the armed schedule and the process's own I/O sequence — no RNG, no
// clocks — so a crash scheduled at `ckpt.rename:at=2,action=abort`
// reproduces bit-identically under any shard count.
//
// The registry is process-global (failpoints model machine-level faults,
// not per-object ones) and thread-safe; arming mid-run from another
// thread is supported but the soak executor's fork-per-scenario isolation
// is the intended containment boundary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lgg::common {

enum class FailpointAction : std::uint8_t {
  kError,  ///< operation reports failure (EIO-style)
  kTorn,   ///< write persists a prefix, then reports failure
  kAbort,  ///< raise(SIGKILL) before the operation — process dies here
};

[[nodiscard]] std::string_view to_string(FailpointAction action);

/// What an armed site should do at this hit.
struct FailpointFire {
  FailpointAction action = FailpointAction::kError;
  /// Torn writes: bytes of the content to persist.  SIZE_MAX means "half
  /// of whatever the site was about to write".
  std::size_t keep = static_cast<std::size_t>(-1);
};

class FailpointRegistry {
 public:
  static FailpointRegistry& instance();

  /// Parses and arms a schedule (see grammar above), merging with any
  /// already-armed triggers.  Throws std::runtime_error on a malformed
  /// spec without arming anything from it.
  void arm(const std::string& spec);
  /// Disarms every trigger and zeroes every hit counter.
  void clear();
  [[nodiscard]] bool armed() const {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Registers one hit of `site` and returns the action to take, if a
  /// trigger fires.  kAbort never returns: the registry raises SIGKILL.
  std::optional<FailpointFire> hit(std::string_view site);

  /// Lifetime hit count of a site (including hits while unarmed... the
  /// counter only advances while any trigger is armed, keeping the
  /// unarmed fast path to a single atomic load).
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;

 private:
  FailpointRegistry() = default;
  struct Impl;
  Impl& impl() const;
  std::atomic<std::size_t> armed_count_{0};
};

/// Site probe: `if (auto f = failpoint("ckpt.rename")) { ... }`.  Free of
/// any cost beyond one relaxed atomic load when nothing is armed.
inline std::optional<FailpointFire> failpoint(std::string_view site) {
  FailpointRegistry& registry = FailpointRegistry::instance();
  if (!registry.armed()) return std::nullopt;
  return registry.hit(site);
}

/// RAII arm/clear, for tests and the chaos oracle: arms `spec` on entry
/// and clears the whole registry on exit.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec) {
    if (!spec.empty()) FailpointRegistry::instance().arm(spec);
  }
  ~ScopedFailpoints() { FailpointRegistry::instance().clear(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

/// Durable atomic file write: temp file + write + fsync + rename + a
/// best-effort fsync of the containing directory, so the rename itself is
/// on disk before the call reports success.  Failpoint sites
/// `<site_prefix>.write`, `<site_prefix>.fsync`, `<site_prefix>.rename`
/// are compiled into the corresponding stages.  Returns false on any
/// failure (injected or real), leaving no temp file behind and the
/// destination untouched.
bool write_file_durable(const std::string& path, std::string_view content,
                        const std::string& site_prefix);

}  // namespace lgg::common
