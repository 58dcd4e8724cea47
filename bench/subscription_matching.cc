// Subscription matching at scale (DESIGN.md §14): a standing population of
// N generated subscriber profiles evaluated against DMOZ-style documents,
// shared (one CSE-merged DAG via QueryTemplate — the spexserve
// subscription-mode shape) vs unshared (N independent SpexEngines, one per
// subscriber).  Reports events/sec and matches/sec per population size.
//
//   subscription_matching [--scale=S] [--docs=N] [--json PATH]
//
// --scale scales each document (DMOZ content generator, default 0.0002);
// --docs sets the document count (default 2).  With --json the run writes
// {benchmark: "subscription_{shared,unshared}_n<N>", events_per_sec,
// matches_per_sec, ...} records consumed by tools/bench_compare and
// committed as BENCH_PR<n>.json.
//
// Expected shape: the shared DAG's degree is bounded by the distinct
// canonical sub-expressions in the population, not by N, so shared events/s
// is roughly flat in N while unshared falls as 1/N — the acceptance bar is
// >= 5x at N=1000.  Matches (results delivered across all N subscribers,
// duplicates included) are identical in both modes by construction.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/generators.h"

namespace spex {
namespace {

// Deterministic overlapping profiles over the DMOZ vocabulary — the same
// generator shape as `spexserve --subscription-count` (tools/spexserve.cc).
// Most share the `_*.Topic` spine, many share whole qualifier sandwiches,
// and exact duplicates collapse into template slots.
std::vector<std::string> MakeSubscriptions(int n) {
  static const char* kQualifiers[] = {"editor", "newsGroup", "Description",
                                      "link"};
  static const char* kFields[] = {"Title", "Description", "link",
                                  "lastUpdate", "editor"};
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string q = "_*.Topic";
    if (i % 3 == 1) q += "[" + std::string(kQualifiers[i % 4]) + "]";
    if (i % 3 == 2) q += "[editor]";
    q += "." + std::string(kFields[(i / 3) % 5]);
    out.push_back(std::move(q));
  }
  return out;
}

struct ModeResult {
  std::string name;
  double seconds = 0;
  int64_t events = 0;   // document events swept once per mode
  int64_t matches = 0;  // results across all N subscribers (duplicates too)
  double events_per_sec = 0;
  double matches_per_sec = 0;
};

void Finish(ModeResult* r, double seconds) {
  r->seconds = seconds;
  r->events_per_sec = static_cast<double>(r->events) / seconds;
  r->matches_per_sec = static_cast<double>(r->matches) / seconds;
}

using Batch = std::vector<StreamEvent>;

// Shared: one merged DAG for the whole population (built once, outside the
// timed region, exactly like a resident CompiledQueryCache template), every
// document swept once.  Per-subscriber match counts come from the slot map.
ModeResult RunShared(const std::vector<std::string>& population,
                     const std::vector<Batch>& docs) {
  ModeResult out;
  out.name = "subscription_shared_n" + std::to_string(population.size());
  StatusOr<std::shared_ptr<const QueryTemplate>> mq_template =
      QueryTemplate::Build(population);
  if (!mq_template.ok()) {
    std::fprintf(stderr, "bad population: %s\n",
                 mq_template.status().message().c_str());
    std::exit(1);
  }
  const QueryTemplate& t = **mq_template;
  bench::Timer timer;
  for (const Batch& doc : docs) {
    std::vector<std::unique_ptr<CountingResultSink>> sinks;
    std::vector<ResultSink*> sink_ptrs;
    for (int s = 0; s < t.slot_count(); ++s) {
      sinks.push_back(std::make_unique<CountingResultSink>());
      sink_ptrs.push_back(sinks.back().get());
    }
    SpexEngine mq(*mq_template, sink_ptrs);
    mq.OnEventBatch(doc.data(), doc.size());
    out.events += static_cast<int64_t>(doc.size());
    for (int i = 0; i < t.input_count(); ++i) {
      out.matches += mq.result_count(t.slot_of(i));
    }
  }
  Finish(&out, timer.Seconds());
  return out;
}

// Unshared: one SpexEngine per subscriber per document, the stream
// delivered N times.  Each engine is compiled inside the timed region, so
// the unshared figure includes N network compiles per document.
ModeResult RunUnshared(const std::vector<std::string>& population,
                       const std::vector<Batch>& docs) {
  ModeResult out;
  out.name = "subscription_unshared_n" + std::to_string(population.size());
  std::vector<ExprPtr> queries;
  for (const std::string& q : population) queries.push_back(MustParseRpeq(q));
  bench::Timer timer;
  for (const Batch& doc : docs) {
    for (const ExprPtr& q : queries) {
      CountingResultSink sink;
      SpexEngine engine(*q, &sink);
      engine.OnEventBatch(doc.data(), doc.size());
      out.matches += sink.results();
    }
    out.events += static_cast<int64_t>(doc.size());
  }
  Finish(&out, timer.Seconds());
  return out;
}

}  // namespace
}  // namespace spex

int main(int argc, char** argv) {
  using namespace spex;
  const double scale = bench::FlagValue(argc, argv, "scale", 0.0002);
  const int doc_count =
      static_cast<int>(bench::FlagValue(argc, argv, "docs", 2));
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::vector<Batch> docs;
  int64_t doc_events = 0;
  for (int d = 0; d < doc_count; ++d) {
    docs.push_back(GenerateToVector([&](EventSink* sink) {
      GenerateDmozLike(static_cast<uint64_t>(4000 + d), scale,
                       /*content=*/true, sink);
    }));
    doc_events += static_cast<int64_t>(docs.back().size());
  }
  std::fprintf(stderr, "%d documents, %lld events total\n", doc_count,
               static_cast<long long>(doc_events));
  std::printf("%8s %8s %14s %14s %14s %9s\n", "N", "slots", "shared ev/s",
              "unshared ev/s", "matches/s", "speedup");
  bench::PrintRule(74);

  std::vector<ModeResult> records;
  for (int n : {100, 1000, 10000}) {
    const std::vector<std::string> population = MakeSubscriptions(n);
    ModeResult shared = RunShared(population, docs);
    ModeResult unshared = RunUnshared(population, docs);
    if (shared.matches != unshared.matches) {
      std::fprintf(stderr, "FATAL: n=%d diverged (%lld vs %lld matches)\n", n,
                   static_cast<long long>(shared.matches),
                   static_cast<long long>(unshared.matches));
      return 1;
    }
    StatusOr<std::shared_ptr<const QueryTemplate>> t =
        QueryTemplate::Build(population);
    std::printf("%8d %8d %14.0f %14.0f %14.0f %8.2fx\n", n,
                (*t)->slot_count(), shared.events_per_sec,
                unshared.events_per_sec, shared.matches_per_sec,
                shared.events_per_sec / unshared.events_per_sec);
    records.push_back(std::move(shared));
    records.push_back(std::move(unshared));
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"meta\": %s,\n  \"records\": [\n",
                 bench::MetaJson("subscription_matching", "off").c_str());
    for (size_t i = 0; i < records.size(); ++i) {
      const ModeResult& r = records[i];
      std::fprintf(f,
                   "%s  {\"benchmark\": \"%s\", \"observe\": \"off\", "
                   "\"events_per_sec\": %.1f, \"matches_per_sec\": %.1f, "
                   "\"results\": %lld}",
                   i == 0 ? "" : ",\n", r.name.c_str(), r.events_per_sec,
                   r.matches_per_sec, static_cast<long long>(r.matches));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }
  return 0;
}
