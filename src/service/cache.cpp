#include "service/cache.hpp"

#include <sstream>

#include "common/hash.hpp"
#include "runner/supervisor.hpp"

namespace ats::service {

ResultCache::ResultCache(std::string journal_path)
    : journal_(std::move(journal_path)) {
  // Warm restart: reload every complete journal line.  Each line is keyed
  // by its own cell key (stored in the fingerprint slot of the shared
  // runner row format, with index 0), so parse keyed by the line's own
  // prefix: read the key back out first, then parse normally.
  for (const std::string& line : journal_.lines()) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    std::uint64_t key = 0;
    try {
      key = std::stoull(line.substr(0, tab), nullptr, 16);
    } catch (const std::exception&) {
      continue;  // malformed prefix: skip the line, keep the rest
    }
    std::size_t index = 0;
    gen::ExperimentRow row;
    if (!runner::parse_journal_row(line, key, &index, &row)) continue;
    rows_[key] = std::move(row);
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.entries = rows_.size();
}

std::uint64_t ResultCache::cell_key(std::uint64_t plan_fp,
                                    const std::string& value) {
  std::ostringstream os;
  os << std::hex << plan_fp << '\t' << value;
  return fnv1a64(os.str());
}

ResultCache::Found ResultCache::lookup_or_begin(std::uint64_t key,
                                                gen::ExperimentRow* row) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (const auto it = rows_.find(key); it != rows_.end()) {
      *row = it->second;
      ++stats_.hits;
      return Found::kHit;
    }
    auto pit = pending_.find(key);
    if (pit == pending_.end()) {
      auto p = std::make_unique<Pending>();
      p->owned = true;
      pending_.emplace(key, std::move(p));
      ++stats_.misses;
      return Found::kOwner;
    }
    Pending& p = *pit->second;
    if (!p.owned) {
      // The previous owner abandoned; this waiter takes over.
      p.owned = true;
      ++stats_.misses;
      return Found::kOwner;
    }
    ++p.waiters;
    p.cv.wait(lk, [&] {
      return rows_.count(key) != 0 || !pit->second->owned;
    });
    --p.waiters;
    if (const auto it = rows_.find(key); it != rows_.end()) {
      *row = it->second;
      ++stats_.waits;
      if (p.waiters == 0) pending_.erase(pit);
      return Found::kWaited;
    }
    // Owner abandoned: loop around; this thread (or another waiter)
    // becomes the new owner.
  }
}

bool ResultCache::peek(std::uint64_t key, gen::ExperimentRow* row) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  *row = it->second;
  ++stats_.hits;
  return true;
}

void ResultCache::publish(std::uint64_t key, const gen::ExperimentRow& row) {
  std::lock_guard<std::mutex> lk(mu_);
  // Wall-clock-dependent outcomes are not reusable (see header).
  if (row.outcome != gen::RunOutcome::kHang) {
    rows_[key] = row;
    stats_.entries = rows_.size();
    journal_.append(runner::format_journal_row(key, 0, row));
  }
  const auto pit = pending_.find(key);
  if (pit != pending_.end()) {
    pit->second->owned = false;
    if (pit->second->waiters == 0) {
      pending_.erase(pit);
    } else {
      pit->second->cv.notify_all();
    }
  }
}

void ResultCache::abandon(std::uint64_t key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto pit = pending_.find(key);
  if (pit == pending_.end()) return;
  pit->second->owned = false;
  if (pit->second->waiters == 0) {
    pending_.erase(pit);
  } else {
    pit->second->cv.notify_all();
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace ats::service
