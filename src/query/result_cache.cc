#include "query/result_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdbms/value.h"

namespace structura::query {

namespace {

/// Cached counters/gauges — registry pointers are stable for the
/// process lifetime, so one lookup each suffices.
struct CacheMetrics {
  obs::Counter* hit;
  obs::Counter* miss;
  obs::Counter* evict;
  obs::Counter* inval;
  obs::Counter* reject;
  obs::Gauge* bytes;
  obs::Gauge* entries;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      CacheMetrics out;
      out.hit = r.GetCounter("query.cache.hit");
      out.miss = r.GetCounter("query.cache.miss");
      out.evict = r.GetCounter("query.cache.evict");
      out.inval = r.GetCounter("query.cache.inval");
      out.reject = r.GetCounter("query.cache.reject");
      out.bytes = r.GetGauge("query.cache.bytes");
      out.entries = r.GetGauge("query.cache.entries");
      return out;
    }();
    return m;
  }
};

/// Rough retained-memory estimate for budget accounting: container
/// headers plus string payloads. Exactness doesn't matter — it only has
/// to scale with the real footprint.
size_t ApproxBytes(const Relation& r) {
  size_t b = sizeof(Relation);
  for (const std::string& c : r.columns()) b += sizeof(std::string) + c.size();
  for (const Row& row : r.rows()) {
    b += sizeof(Row);
    for (const Value& v : row) {
      b += sizeof(Value);
      if (v.type() == rdbms::ValueType::kString) b += v.as_string().size();
    }
  }
  return b;
}

}  // namespace

uint64_t EpochMap::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = epochs_.find(name);
  return it == epochs_.end() ? 0 : it->second;
}

void EpochMap::Bump(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epochs_[name];
}

EpochVector EpochMap::Snapshot(
    const std::vector<std::string>& inputs) const {
  EpochVector out;
  out.reserve(inputs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& name : inputs) {
    auto it = epochs_.find(name);
    out.emplace_back(name, it == epochs_.end() ? 0 : it->second);
  }
  return out;
}

QueryResultCache::QueryResultCache(Options opts) : options_(opts) {}

std::shared_ptr<const Relation> QueryResultCache::Lookup(
    const std::string& fingerprint) {
  TRACE_SPAN("query.cache.lookup");
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    bool current = true;
    for (const auto& [name, epoch] : it->second->at) {
      if (epochs_.Get(name) != epoch) {
        current = false;
        break;
      }
    }
    if (current) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      std::shared_ptr<const Relation> result = it->second->result;
      lock.unlock();
      CacheMetrics::Get().hit->Increment();
      TRACE_SPAN("query.cache.hit");
      return result;
    }
    // Some input moved on since this entry was computed: the entry is
    // garbage by construction, drop it now. This lazy erase is what
    // keeps Bump O(1).
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidations;
    stats_.entries = index_.size();
    stats_.bytes = bytes_;
    CacheMetrics::Get().inval->Increment();
    CacheMetrics::Get().bytes->Set(static_cast<int64_t>(bytes_));
    CacheMetrics::Get().entries->Set(static_cast<int64_t>(index_.size()));
  }
  ++stats_.misses;
  lock.unlock();
  CacheMetrics::Get().miss->Increment();
  TRACE_SPAN("query.cache.miss");
  return nullptr;
}

void QueryResultCache::Insert(const std::string& fingerprint, EpochVector at,
                              Relation result, const obs::CostVector& cost) {
  TRACE_SPAN("query.cache.insert");
  size_t bytes = ApproxBytes(result);
  if (cost.Score() < options_.min_cost_score || bytes > options_.max_bytes ||
      options_.max_entries == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    CacheMetrics::Get().reject->Increment();
    return;
  }
  auto shared = std::make_shared<const Relation>(std::move(result));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{fingerprint, std::move(at), std::move(shared), bytes});
  index_[fingerprint] = lru_.begin();
  bytes_ += bytes;
  EvictLocked();
  stats_.entries = index_.size();
  stats_.bytes = bytes_;
  CacheMetrics::Get().bytes->Set(static_cast<int64_t>(bytes_));
  CacheMetrics::Get().entries->Set(static_cast<int64_t>(index_.size()));
}

void QueryResultCache::EvictLocked() {
  while (!lru_.empty() && (index_.size() > options_.max_entries ||
                           bytes_ > options_.max_bytes)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.fingerprint);
    lru_.pop_back();
    ++stats_.evictions;
    CacheMetrics::Get().evict->Increment();
  }
}

void QueryResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  stats_.entries = 0;
  stats_.bytes = 0;
  CacheMetrics::Get().bytes->Set(0);
  CacheMetrics::Get().entries->Set(0);
}

QueryResultCache::Stats QueryResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace structura::query
