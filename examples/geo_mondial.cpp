// Geographic queries on a MONDIAL-like database — the paper's small,
// highly-structured §VI scenario, exercising all four query classes plus
// the XPath front-end and the conjunctive-query extension (§VII).
//
//   $ ./geo_mondial [--scale=S]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cq/conjunctive.h"
#include "spex/spex.h"

namespace {

using spex::StreamEvent;

void RunRpeq(const char* title, const char* query_text,
             const std::vector<StreamEvent>& events) {
  spex::ExprPtr query = spex::MustParseRpeq(query_text);
  spex::CountingResultSink sink;
  spex::SpexEngine engine(*query, &sink);
  for (const StreamEvent& e : events) engine.OnEvent(e);
  std::printf("%-28s %-42s -> %lld results\n", title, query_text,
              static_cast<long long>(sink.results()));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale = atof(argv[i] + 8);
  }

  spex::RecordingEventSink recording;
  spex::GeneratorStats gen = spex::GenerateMondialLike(7, scale, &recording);
  const std::vector<StreamEvent>& events = recording.events();
  std::printf("MONDIAL-like database: %lld elements, depth %d\n\n",
              static_cast<long long>(gen.elements), gen.max_depth);

  std::printf("-- the four §VI query classes --\n");
  RunRpeq("class 1 (structural)", "_*.province.city", events);
  RunRpeq("class 2 (future cond.)", "_*.country[province].name", events);
  RunRpeq("class 3 (nested results)", "_*._", events);
  RunRpeq("class 4 (past cond.)", "_*.country[province].religions", events);

  std::printf("\n-- the same via the XPath front-end --\n");
  {
    spex::ExprPtr query = spex::MustParseXPath("//country[province]/name");
    std::printf("%-28s %-42s -> rpeq %s\n", "XPath", "//country[province]/name",
                query->ToString().c_str());
    spex::CountingResultSink sink;
    spex::SpexEngine engine(*query, &sink);
    for (const StreamEvent& e : events) engine.OnEvent(e);
    std::printf("%-28s %-42s -> %lld results\n", "", "",
                static_cast<long long>(sink.results()));
  }

  std::printf("\n-- a conjunctive query with two heads (§VII) --\n");
  auto cq = spex::MustParseConjunctiveQuery(
      "q(N,C) :- Root(_*.country) X, X(name) N, X(province) P, P(city) C");
  std::printf("%s\n", cq->ToString().c_str());
  // One rpeq per head, run as one population: the heads share their
  // common steps.
  spex::StatusOr<std::vector<spex::ExprPtr>> heads =
      spex::CompileConjunctive(*cq);
  if (!heads.ok()) {
    std::fprintf(stderr, "cq error: %s\n", heads.status().message().c_str());
    return 1;
  }
  std::vector<spex::SerializingResultSink> per_head(heads->size());
  spex::SpexEngine cq_engine;
  for (size_t i = 0; i < heads->size(); ++i) {
    std::printf("  %s = %s\n", cq->head[i].c_str(),
                (*heads)[i]->ToString().c_str());
    cq_engine.AddQuery(*(*heads)[i], &per_head[i]).value();
  }
  cq_engine.Finalize();
  cq_engine.OnEventBatch(events.data(), events.size());
  std::printf("  network degree %d (%d as separate networks)\n",
              cq_engine.shared_degree(), cq_engine.naive_degree());
  std::printf("  N (country names, where the country has a province with a "
              "city): %zu\n", per_head[0].results().size());
  std::printf("  C (cities of such countries): %zu\n",
              per_head[1].results().size());
  if (!per_head[0].results().empty()) {
    std::printf("  first N fragment: %s\n",
                per_head[0].results()[0].c_str());
  }

  std::printf("\n-- fragments, not just counts --\n");
  spex::ExprPtr query = spex::MustParseRpeq("_*.country[province].name");
  spex::SerializingResultSink sink;
  spex::SpexEngine engine(*query, &sink);
  for (const StreamEvent& e : events) engine.OnEvent(e);
  for (size_t i = 0; i < sink.results().size() && i < 3; ++i) {
    std::printf("  %s\n", sink.results()[i].c_str());
  }
  std::printf("  ... (%zu total)\n", sink.results().size());
  return 0;
}
