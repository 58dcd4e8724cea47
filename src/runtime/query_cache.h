// Shared compiled-query cache (DESIGN.md §9).
//
// Production traffic repeats queries: many sessions, few distinct query
// texts.  The cache canonicalizes rpeq text (parse → round-trip syntax, so
// "a . b", "(a.b)" and "a.b" are one entry), keeps the resulting immutable
// QueryTemplates (see spex/compiler.h) under LRU eviction keyed on the
// sorted canonical-set digest — a single query is the population of one,
// so Get("a") and GetMulti({"a"}) are one entry — and hands out
// shared_ptr references that any number of sessions on any number of
// threads instantiate concurrently.  Per-session instantiation stays cheap
// (linear-time translation, Lemma V.1); what the cache de-duplicates is the
// admission work — validation, the trial compile, the AST snapshot — and
// the template memory itself.
//
// Thread safety: every public method may be called from any thread (one
// mutex around the LRU structures; templates themselves are immutable).
// Hit/miss/eviction counts are kept in atomics so RegisterCollectors can
// export them through a shared obs::MetricRegistry scraped mid-flight.

#ifndef SPEX_RUNTIME_QUERY_CACHE_H_
#define SPEX_RUNTIME_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "obs/metrics.h"
#include "spex/compiler.h"

namespace spex {

class CompiledQueryCache {
 public:
  // `capacity` bounds the number of resident templates; least recently used
  // entries are evicted first.  Evicted templates stay alive as long as any
  // session still holds them (shared_ptr).
  explicit CompiledQueryCache(size_t capacity = 128);

  CompiledQueryCache(const CompiledQueryCache&) = delete;
  CompiledQueryCache& operator=(const CompiledQueryCache&) = delete;

  // Returns the shared template for `query_text`, parsing + building on
  // miss.  Null (and *error filled) on a syntax or validation error —
  // failures are not cached.
  std::shared_ptr<const QueryTemplate> Get(const std::string& query_text,
                                           std::string* error);

  // Structured-error variant (the serving path): kMalformedInput carrying
  // the parse/validation message instead of a bare string.
  StatusOr<std::shared_ptr<const QueryTemplate>> Get(
      const std::string& query_text);

  // As Get, for an already-parsed expression (skips the parse, still
  // canonicalizes through the expression's round-trip syntax).
  std::shared_ptr<const QueryTemplate> GetFor(const Expr& query,
                                              std::string* error);

  // Shared template for a whole query set (subscription mode, DESIGN.md
  // §14): the same population in any registration order and any spelling
  // is one entry, built (validated, CSE-merged, trial-compiled) once.
  // Failures (kMalformedInput naming the offending query) are not cached.
  StatusOr<std::shared_ptr<const QueryTemplate>> GetMulti(
      const std::vector<std::string>& query_texts);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  int64_t hits() const { return hits_.value(); }
  int64_t misses() const { return misses_.value(); }
  int64_t evictions() const { return evictions_.value(); }

  // Exports the cache meters into `registry` as callback gauges
  // (spex_query_cache_{size,hits,misses,evictions}); the cache must outlive
  // every Collect() on the registry.
  void RegisterCollectors(obs::MetricRegistry* registry) const;

 private:
  // LRU list, most recently used first; the map points into it.  A
  // 10k-query template and a single-query template are one entry each —
  // the bound is on resident *artifacts*, not queries.
  struct Entry {
    std::string key;  // sorted canonical-set digest
    std::shared_ptr<const QueryTemplate> query_template;
  };

  // The resident template under `key`, refreshed to most recent; null on a
  // miss.  Counts the hit.
  std::shared_ptr<const QueryTemplate> Lookup(const std::string& key);
  // Inserts a freshly built template under `key` (a lost build race keeps
  // the resident entry) and evicts beyond capacity.
  std::shared_ptr<const QueryTemplate> Insert(
      const std::string& key, std::shared_ptr<const QueryTemplate> t);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  obs::AtomicCounter hits_;
  obs::AtomicCounter misses_;
  obs::AtomicCounter evictions_;
};

}  // namespace spex

#endif  // SPEX_RUNTIME_QUERY_CACHE_H_
