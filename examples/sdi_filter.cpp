// Selective dissemination of information (SDI) — the paper's §I motivating
// application: a stream of documents is filtered against the *profiles*
// (queries) of many subscribers before being distributed.
//
// Each subscriber registers an rpeq profile; every incoming news item is
// pushed once through each subscriber's network, and matched fragments are
// delivered immediately.  Demonstrates (a) many live engines on one stream,
// (b) progressive per-record delivery, (c) constant memory per subscriber.
//
//   $ ./sdi_filter [--items=N]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "spex/spex.h"

namespace {

using spex::EventSink;
using spex::SpexEngine;
using spex::StreamEvent;

// A subscriber: a profile query plus a delivery callback.
class Subscriber {
 public:
  Subscriber(std::string name, const std::string& profile)
      : name_(std::move(name)),
        query_(spex::MustParseRpeq(profile)),
        engine_(std::make_unique<SpexEngine>(*query_, &sink_)) {}

  void OnEvent(const StreamEvent& event) { engine_->OnEvent(event); }

  const std::string& name() const { return name_; }
  int64_t delivered() const { return sink_.results(); }
  std::string profile() const { return query_->ToString(); }
  spex::RunStats stats() const { return engine_->ComputeStats(); }

 private:
  std::string name_;
  spex::ExprPtr query_;
  spex::CountingResultSink sink_;
  std::unique_ptr<SpexEngine> engine_;
};

// Fans one stream out to all subscribers.
class Broker : public EventSink {
 public:
  void Register(std::string name, const std::string& profile) {
    subscribers_.push_back(
        std::make_unique<Subscriber>(std::move(name), profile));
  }

  void OnEvent(const StreamEvent& event) override {
    for (auto& s : subscribers_) s->OnEvent(event);
  }

  const std::vector<std::unique_ptr<Subscriber>>& subscribers() const {
    return subscribers_;
  }

 private:
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
};

// Emits one news item into the (unbounded) stream.
void EmitItem(EventSink* sink, int i) {
  auto leaf = [&](const char* label, const std::string& text) {
    sink->OnEvent(StreamEvent::StartElement(label));
    sink->OnEvent(StreamEvent::Text(text));
    sink->OnEvent(StreamEvent::EndElement(label));
  };
  sink->OnEvent(StreamEvent::StartElement("item"));
  leaf("category", i % 3 == 0 ? "markets" : i % 3 == 1 ? "tech" : "sport");
  if (i % 4 == 0) {
    sink->OnEvent(StreamEvent::StartElement("urgent"));
    sink->OnEvent(StreamEvent::EndElement("urgent"));
  }
  leaf("headline", "headline-" + std::to_string(i));
  if (i % 5 == 0) {
    sink->OnEvent(StreamEvent::StartElement("body"));
    leaf("quote", "q" + std::to_string(i));
    sink->OnEvent(StreamEvent::EndElement("body"));
  }
  sink->OnEvent(StreamEvent::EndElement("item"));
}

}  // namespace

int main(int argc, char** argv) {
  int64_t items = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--items=", 8) == 0) {
      items = std::atoll(argv[i] + 8);
    }
  }

  Broker broker;
  // Profiles use the four §VI query classes.
  broker.Register("alice", "feed.item[urgent].headline");
  broker.Register("bob", "feed.item.category");
  broker.Register("carol", "_*.item[body[quote]]");
  broker.Register("dave", "feed.item[category].headline");
  broker.Register("erin", "_*.quote");

  std::printf("SDI demo: %lld items through %zu subscriber profiles\n\n",
              static_cast<long long>(items), broker.subscribers().size());

  broker.OnEvent(StreamEvent::StartDocument());
  broker.OnEvent(StreamEvent::StartElement("feed"));
  for (int64_t i = 0; i < items; ++i) EmitItem(&broker, static_cast<int>(i));
  broker.OnEvent(StreamEvent::EndElement("feed"));
  broker.OnEvent(StreamEvent::EndDocument());

  std::printf("%-8s %-34s %10s %12s %12s\n", "name", "profile", "delivered",
              "stack_peak", "buffered_pk");
  for (const auto& s : broker.subscribers()) {
    spex::RunStats stats = s->stats();
    std::printf("%-8s %-34s %10lld %12lld %12lld\n", s->name().c_str(),
                s->profile().c_str(), static_cast<long long>(s->delivered()),
                static_cast<long long>(stats.max_depth_stack),
                static_cast<long long>(stats.output.buffered_events_peak));
  }
  std::printf("\nAll stacks and buffers stay bounded by the item depth: the "
              "stream could run forever.\n");

  // The same profiles through ONE shared network (§IX multi-query
  // optimization): common prefixes are compiled once.
  std::vector<std::unique_ptr<spex::CountingResultSink>> sinks;
  spex::SpexEngine mq;
  for (const auto& s : broker.subscribers()) {
    sinks.push_back(std::make_unique<spex::CountingResultSink>());
    mq.AddQuery(s->profile(), sinks.back().get());
  }
  mq.Finalize();
  mq.OnEvent(StreamEvent::StartDocument());
  mq.OnEvent(StreamEvent::StartElement("feed"));
  for (int64_t i = 0; i < items; ++i) EmitItem(&mq, static_cast<int>(i));
  mq.OnEvent(StreamEvent::EndElement("feed"));
  mq.OnEvent(StreamEvent::EndDocument());
  std::printf("\nshared network: %d transducers instead of %d; identical "
              "deliveries: %s\n",
              mq.shared_degree(), mq.naive_degree(), [&] {
                for (size_t i = 0; i < sinks.size(); ++i) {
                  if (sinks[i]->results() !=
                      broker.subscribers()[i]->delivered()) {
                    return "NO";
                  }
                }
                return "yes";
              }());
  return 0;
}
