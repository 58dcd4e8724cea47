#include "runtime/query_cache.h"

#include "rpeq/parser.h"

namespace spex {

CompiledQueryCache::CompiledQueryCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const QueryTemplate> CompiledQueryCache::Get(
    const std::string& query_text, std::string* error) {
  ParseResult parsed = ParseRpeq(query_text);
  if (!parsed.ok()) {
    if (error != nullptr) {
      *error = "parse error at byte " + std::to_string(parsed.error_position) +
               ": " + parsed.error;
    }
    return nullptr;
  }
  return GetFor(*parsed.expr, error);
}

StatusOr<std::shared_ptr<const QueryTemplate>> CompiledQueryCache::Get(
    const std::string& query_text) {
  std::string error;
  std::shared_ptr<const QueryTemplate> t = Get(query_text, &error);
  if (t == nullptr) return Status::MalformedInput(error);
  return t;
}

std::shared_ptr<const QueryTemplate> CompiledQueryCache::GetFor(
    const Expr& query, std::string* error) {
  const std::string key = QueryTemplate::DigestOf(query.ToString());
  if (std::shared_ptr<const QueryTemplate> hit = Lookup(key)) return hit;
  // Build outside the lock: validation + trial compile are the expensive
  // part, and concurrent misses on the same key are harmless (both build,
  // one wins the insert, both results are equivalent immutable templates).
  std::shared_ptr<const QueryTemplate> built = QueryTemplate::Build(query,
                                                                    error);
  if (built == nullptr) return nullptr;
  return Insert(key, std::move(built));
}

StatusOr<std::shared_ptr<const QueryTemplate>> CompiledQueryCache::GetMulti(
    const std::vector<std::string>& query_texts) {
  // Digest first (parse + canonicalize, no trial compile) so a resident
  // population is a pure lookup.
  StatusOr<std::string> digest = QueryTemplate::CanonicalDigest(query_texts);
  if (!digest.ok()) return digest.status();
  if (std::shared_ptr<const QueryTemplate> hit = Lookup(*digest)) return hit;
  StatusOr<std::shared_ptr<const QueryTemplate>> built =
      QueryTemplate::Build(query_texts);
  if (!built.ok()) return built.status();
  return Insert(*digest, std::move(built).value());
}

std::shared_ptr<const QueryTemplate> CompiledQueryCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  // Refresh recency: move the entry to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.Increment();
  return it->second->query_template;
}

std::shared_ptr<const QueryTemplate> CompiledQueryCache::Insert(
    const std::string& key, std::shared_ptr<const QueryTemplate> t) {
  misses_.Increment();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Lost a build race: keep the resident entry, drop ours.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->query_template;
  }
  lru_.push_front(Entry{key, t});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.Increment();
  }
  return t;
}

size_t CompiledQueryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void CompiledQueryCache::RegisterCollectors(
    obs::MetricRegistry* registry) const {
  registry->AddCallbackGauge("spex_query_cache_size", {},
                             [this] { return static_cast<int64_t>(size()); });
  registry->AddCallbackGauge("spex_query_cache_capacity", {}, [this] {
    return static_cast<int64_t>(capacity_);
  });
  registry->AddCallbackGauge("spex_query_cache_hits", {},
                             [this] { return hits(); });
  registry->AddCallbackGauge("spex_query_cache_misses", {},
                             [this] { return misses(); });
  registry->AddCallbackGauge("spex_query_cache_evictions", {},
                             [this] { return evictions(); });
}

}  // namespace spex
