#include "common/failpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/require.hpp"
#include "common/spec_parse.hpp"

namespace lgg::common {

namespace {

struct Trigger {
  std::uint64_t at = 1;  ///< 1-based hit index this trigger fires on
  FailpointAction action = FailpointAction::kError;
  std::size_t keep = static_cast<std::size_t>(-1);
  bool fired = false;
};

constexpr FailpointAction kActions[] = {
    FailpointAction::kError, FailpointAction::kTorn, FailpointAction::kAbort};

struct SiteState {
  std::uint64_t hits = 0;
  std::vector<Trigger> triggers;
};

}  // namespace

std::string_view to_string(FailpointAction action) {
  switch (action) {
    case FailpointAction::kError: return "error";
    case FailpointAction::kTorn: return "torn";
    case FailpointAction::kAbort: return "abort";
  }
  return "?";
}

struct FailpointRegistry::Impl {
  std::mutex mutex;
  std::unordered_map<std::string, SiteState> sites;
};

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry registry;
  return registry;
}

FailpointRegistry::Impl& FailpointRegistry::impl() const {
  static Impl impl;
  return impl;
}

void FailpointRegistry::arm(const std::string& spec) {
  // Parse the whole spec into a staging list first so a malformed clause
  // arms nothing.
  std::vector<std::pair<std::string, Trigger>> staged;
  try {
    for (const std::string_view text : split_spec(spec)) {
      SpecClause clause(text, "clause");
      if (clause.name().empty()) clause.fail("missing site name");
      Trigger trigger;
      trigger.at = clause.number<std::uint64_t>("at");
      if (trigger.at == 0) clause.fail("at wants a 1-based hit index");
      if (const auto action = clause.take("action")) {
        const FailpointAction* known = std::find_if(
            std::begin(kActions), std::end(kActions),
            [&](FailpointAction a) { return to_string(a) == *action; });
        if (known == std::end(kActions)) {
          clause.fail("unknown action '" + std::string(*action) + "'");
        }
        trigger.action = *known;
      }
      trigger.keep = static_cast<std::size_t>(
          clause.take_number<std::uint64_t>("keep").value_or(trigger.keep));
      clause.finish();
      staged.emplace_back(clause.name(), trigger);
    }
  } catch (const ContractViolation& e) {
    throw std::runtime_error(std::string("failpoints: ") + e.what());
  }

  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& [site, trigger] : staged) {
    state.sites[site].triggers.push_back(trigger);
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::clear() {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.sites.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::optional<FailpointFire> FailpointRegistry::hit(std::string_view site) {
  Impl& state = impl();
  std::optional<FailpointFire> fire;
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.sites.find(std::string(site));
    if (it == state.sites.end()) return std::nullopt;
    SiteState& s = it->second;
    ++s.hits;
    for (Trigger& trigger : s.triggers) {
      if (!trigger.fired && trigger.at == s.hits) {
        trigger.fired = true;
        armed_count_.fetch_sub(1, std::memory_order_relaxed);
        fire = FailpointFire{trigger.action, trigger.keep};
        break;
      }
    }
  }
  if (fire && fire->action == FailpointAction::kAbort) {
    // The kill-at-random-instant contract: die here, now, with no unwind,
    // no flushing, no atexit — exactly like a power cut at this syscall.
    std::raise(SIGKILL);
    _exit(137);  // unreachable; belt and braces if SIGKILL is blocked
  }
  return fire;
}

std::uint64_t FailpointRegistry::hits(std::string_view site) const {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.sites.find(std::string(site));
  return it == state.sites.end() ? 0 : it->second.hits;
}

namespace {

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void fsync_parent_dir(const std::string& path) {
  // Best effort: the rename is only durable once the directory entry is,
  // but a filesystem that refuses O_DIRECTORY fsync must not fail the
  // write that already succeeded.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool write_file_durable(const std::string& path, std::string_view content,
                        const std::string& site_prefix) {
  const std::string tmp = path + ".tmp";
  std::size_t keep = content.size();
  bool torn = false;
  if (const auto f = failpoint(site_prefix + ".write")) {
    if (f->action == FailpointAction::kTorn) {
      torn = true;
      keep = std::min(f->keep == static_cast<std::size_t>(-1)
                          ? content.size() / 2
                          : f->keep,
                      content.size());
    } else {
      return false;  // injected EIO before anything reached the disk
    }
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (!write_all(fd, content.data(), keep) || torn) {
    // Short write (real or injected): nothing durable was promised yet,
    // so remove the partial temp and report failure.
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (failpoint(site_prefix + ".fsync").has_value() || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (failpoint(site_prefix + ".rename").has_value() ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

}  // namespace lgg::common
