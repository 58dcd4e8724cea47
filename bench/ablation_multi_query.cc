// Ablation E8b — multi-query sharing (§IX outlook / §VIII YFilter
// discussion): evaluating N subscriber profiles through one shared network
// vs. N separate engines.  Reports network degree and throughput; profiles
// share the `_*.item[...]` prefix, so the shared degree grows much slower
// than N and the per-event work drops accordingly.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/generators.h"

namespace spex {
namespace {

// Synthesizes N profiles over a small vocabulary; ~all share the
// "_*.item" prefix and many share longer prefixes.
std::vector<std::string> MakeProfiles(int n) {
  static const char* kSections[] = {"markets", "tech", "sport", "politics"};
  static const char* kFields[] = {"headline", "body", "author", "date"};
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    std::string q = "_*.item";
    if (i % 3 == 1) q += "[" + std::string(kSections[i % 4]) + "]";
    if (i % 3 == 2) q += "[urgent]";
    q += "." + std::string(kFields[(i / 3) % 4]);
    out.push_back(q);
  }
  return out;
}

std::vector<StreamEvent> MakeFeed(int64_t items) {
  RecordingEventSink sink;
  sink.OnEvent(StreamEvent::StartDocument());
  sink.OnEvent(StreamEvent::StartElement("feed"));
  for (int64_t i = 0; i < items; ++i) {
    sink.OnEvent(StreamEvent::StartElement("item"));
    if (i % 2 == 0) {
      sink.OnEvent(StreamEvent::StartElement("markets"));
      sink.OnEvent(StreamEvent::EndElement("markets"));
    }
    if (i % 5 == 0) {
      sink.OnEvent(StreamEvent::StartElement("urgent"));
      sink.OnEvent(StreamEvent::EndElement("urgent"));
    }
    for (const char* f : {"headline", "body", "author"}) {
      sink.OnEvent(StreamEvent::StartElement(f));
      sink.OnEvent(StreamEvent::Text("x"));
      sink.OnEvent(StreamEvent::EndElement(f));
    }
    sink.OnEvent(StreamEvent::EndElement("item"));
  }
  sink.OnEvent(StreamEvent::EndElement("feed"));
  sink.OnEvent(StreamEvent::EndDocument());
  return sink.events();
}

}  // namespace
}  // namespace spex

int main() {
  using namespace spex;
  std::printf("== Ablation E8b: multi-query prefix sharing (§IX) ==\n");
  std::printf("N profiles over one stream: shared network vs N separate "
              "engines.\n\n");
  std::vector<StreamEvent> feed = MakeFeed(2000);
  std::printf("%6s %13s %12s %12s %12s %10s\n", "N", "naive_deg",
              "shared_deg", "separate[s]", "shared[s]", "speedup");
  bench::PrintRule(72);
  for (int n = 4; n <= 256; n *= 2) {
    std::vector<std::string> profiles = MakeProfiles(n);

    // Separate engines.
    double separate_s;
    std::vector<int64_t> separate_counts;
    {
      std::vector<std::unique_ptr<CountingResultSink>> sinks;
      std::vector<ExprPtr> queries;
      std::vector<std::unique_ptr<SpexEngine>> engines;
      for (const std::string& p : profiles) {
        queries.push_back(MustParseRpeq(p));
        sinks.push_back(std::make_unique<CountingResultSink>());
        engines.push_back(
            std::make_unique<SpexEngine>(*queries.back(), sinks.back().get()));
      }
      bench::Timer timer;
      for (const StreamEvent& e : feed) {
        for (auto& engine : engines) engine->OnEvent(e);
      }
      separate_s = timer.Seconds();
      for (auto& s : sinks) separate_counts.push_back(s->results());
    }

    // One shared network.
    double shared_s;
    int naive_deg, shared_deg;
    {
      std::vector<std::unique_ptr<CountingResultSink>> sinks;
      SpexEngine mq;
      for (const std::string& p : profiles) {
        sinks.push_back(std::make_unique<CountingResultSink>());
        mq.AddQuery(p, sinks.back().get());
      }
      mq.Finalize();
      naive_deg = mq.naive_degree();
      shared_deg = mq.shared_degree();
      bench::Timer timer;
      for (const StreamEvent& e : feed) mq.OnEvent(e);
      shared_s = timer.Seconds();
      for (int i = 0; i < n; ++i) {
        if (mq.result_count(i) != separate_counts[static_cast<size_t>(i)]) {
          std::printf("  !! result mismatch for profile %d\n", i);
        }
      }
    }
    std::printf("%6d %13d %12d %12.3f %12.3f %9.2fx\n", n, naive_deg,
                shared_deg, separate_s, shared_s, separate_s / shared_s);
  }
  std::printf("\nExpected shape: shared_deg << naive_deg once profiles "
              "overlap, and the\nshared network processes the stream "
              "several times faster at high N.\n");
  return 0;
}
