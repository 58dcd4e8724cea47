// Unit tests of the output transducer (paper §III.8): candidate creation,
// ordered emission, progressive streaming, buffering accounting and flush.

#include "spex/output_transducer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace spex {
namespace {

class OutputTransducerTest : public ::testing::Test {
 protected:
  OutputTransducerTest() : ou_(&collector_, &context_) {}

  void Send(Message m) { Feed(&ou_, 0, std::move(m), &emitter_); }

  RunContext context_;
  CollectingResultSink collector_;
  TestEmitter emitter_;
  OutputTransducer ou_;
};

TEST_F(OutputTransducerTest, UnconditionalCandidateStreamsImmediately) {
  Send(OpenDoc());
  Send(Activate());
  Send(Open("a"));
  Send(Message::Document(StreamEvent::Text("x")));
  // The result is already streaming before the element even closes.
  ASSERT_EQ(collector_.results().size(), 1u);
  EXPECT_EQ(collector_.results()[0].size(), 2u);
  EXPECT_EQ(ou_.output_stats().buffered_events_peak, 0);
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();
  EXPECT_EQ(ou_.result_count(), 1);
  EXPECT_EQ(collector_.results()[0].size(), 3u);
}

TEST_F(OutputTransducerTest, FutureConditionBuffersUntilDetermined) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  EXPECT_TRUE(collector_.results().empty());  // undetermined: buffered
  EXPECT_EQ(ou_.output_stats().buffered_events_peak, 2);
  context_.assignment.Set(c, true);
  Send(Message::Determination(c, true));
  ASSERT_EQ(collector_.results().size(), 1u);
  EXPECT_EQ(collector_.results()[0].size(), 2u);
  EXPECT_EQ(ou_.result_count(), 1);
}

TEST_F(OutputTransducerTest, FalseConditionDropsCandidate) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  context_.assignment.Set(c, false);
  Send(Message::Determination(c, false));
  EXPECT_TRUE(collector_.results().empty());
  EXPECT_EQ(ou_.output_stats().candidates_dropped, 1);
}

TEST_F(OutputTransducerTest, DocumentOrderIsPreservedAcrossDeterminations) {
  // Candidate 1 (conditional) precedes candidate 2 (unconditional); 2 must
  // wait for 1 even though it is decided first.
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  Send(Activate());
  Send(Open("b"));
  Send(Close("b"));
  EXPECT_TRUE(collector_.results().empty());  // 2 blocked behind 1
  context_.assignment.Set(c, true);
  Send(Message::Determination(c, true));
  ASSERT_EQ(collector_.results().size(), 2u);
  EXPECT_EQ(collector_.results()[0][0], StreamEvent::StartElement("a"));
  EXPECT_EQ(collector_.results()[1][0], StreamEvent::StartElement("b"));
}

TEST_F(OutputTransducerTest, DroppedFrontUnblocksLaterCandidates) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  Send(Activate());
  Send(Open("b"));
  Send(Close("b"));
  context_.assignment.Set(c, false);
  Send(Message::Determination(c, false));
  ASSERT_EQ(collector_.results().size(), 1u);
  EXPECT_EQ(collector_.results()[0][0], StreamEvent::StartElement("b"));
}

TEST_F(OutputTransducerTest, NestedCandidatesBothEmitted) {
  Send(OpenDoc());
  Send(Activate());
  Send(Open("a"));
  Send(Activate());
  Send(Open("b"));
  Send(Close("b"));
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();
  ASSERT_EQ(collector_.results().size(), 2u);
  EXPECT_EQ(collector_.results()[0].size(), 4u);  // <a><b></b></a>
  EXPECT_EQ(collector_.results()[1].size(), 2u);  // <b></b>
}

TEST_F(OutputTransducerTest, RootActivationIsDiscarded) {
  // An activation right before <$> selects the document root, which is not
  // an element and therefore not a result.
  Send(Activate());
  Send(OpenDoc());
  Send(Open("a"));
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();
  EXPECT_TRUE(collector_.results().empty());
  EXPECT_EQ(ou_.output_stats().candidates_created, 0);
}

TEST_F(OutputTransducerTest, DoubleActivationMergesWithOr) {
  VarId c1 = MakeVarId(0, 0);
  VarId c2 = MakeVarId(0, 1);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c1)));
  Send(Activate(Formula::Var(c2)));
  Send(Open("a"));
  Send(Close("a"));
  context_.assignment.Set(c1, false);
  Send(Message::Determination(c1, false));
  EXPECT_TRUE(collector_.results().empty());  // still possible via c2
  context_.assignment.Set(c2, true);
  Send(Message::Determination(c2, true));
  EXPECT_EQ(collector_.results().size(), 1u);
}

TEST_F(OutputTransducerTest, FlushDecidesLeftoversClosedWorld) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();  // c never determined: closed-world => false
  EXPECT_TRUE(collector_.results().empty());
  EXPECT_EQ(ou_.output_stats().candidates_dropped, 1);
}

TEST_F(OutputTransducerTest, StreamedEventsCountedSeparately) {
  Send(OpenDoc());
  Send(Activate());
  Send(Open("a"));
  for (int i = 0; i < 5; ++i) {
    Send(Open("x"));
    Send(Close("x"));
  }
  Send(Close("a"));
  const OutputStats& stats = ou_.output_stats();
  EXPECT_EQ(stats.streamed_events, 12);
  EXPECT_EQ(stats.buffered_events_peak, 0);
}

TEST_F(OutputTransducerTest, PastConditionCandidateNeverBuffers) {
  VarId c = MakeVarId(0, 0);
  context_.assignment.Set(c, true);  // determined before the candidate opens
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  EXPECT_EQ(ou_.output_stats().buffered_events_peak, 0);
  EXPECT_EQ(collector_.results().size(), 1u);
}

}  // namespace
}  // namespace spex
