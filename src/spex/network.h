// SPEX network (paper Def. 3): a DAG of interconnected SPEX transducers
// with one source (the input transducer) and one sink (the output
// transducer).  Tapes are the edges; a tape is written by exactly one
// transducer output port and read by exactly one input port.
//
// Message delivery is a topological sweep: messages injected at the source
// are handed to each node in ascending node id, a node's emissions queue on
// its consumers' pending buffers, and the sweep returns once every buffer is
// drained.  Each transducer thus reads its input tape in order (Def. 1), and
// a sweep's messages fully traverse the network before the next sweep is
// injected.

#ifndef SPEX_SPEX_NETWORK_H_
#define SPEX_SPEX_NETWORK_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_check.h"
#include "rpeq/ast.h"
#include "spex/transducer.h"

namespace spex {

namespace obs {
class ProfileAccumulator;
struct ProfileReport;
}

// Query provenance of one network node: the byte range of the rpeq
// sub-expression this transducer implements (into the original query text)
// plus its concrete syntax.  Recorded by the compiler; consumed by
// EXPLAIN/PROFILE and the annotated DOT rendering.
struct NodeProvenance {
  SourceSpan span;
  std::string fragment;
};

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Adds a transducer node; returns its id.  Nodes must be added in
  // topological order (the compiler does).
  int AddNode(std::unique_ptr<Transducer> transducer);

  // Allocates a new tape; returns its id.
  int NewTape();

  // Declares that `node` writes output port `out_port` to `tape`.
  void SetProducer(int tape, int node, int out_port);
  // Declares that `node` reads `tape` on input port `in_port`.
  void SetConsumer(int tape, int node, int in_port);

  // The one way messages move through the network (DESIGN.md §11): injects
  // `batch` at node `node` and sweeps the network once in topological node
  // order, handing each node its pending input sequence in one
  // Transducer::Deliver call per port.  On return every message has been
  // fully processed (all pending buffers are drained) and *batch holds an
  // empty vector whose capacity is recycled.
  //
  // Correctness precondition (the engine enforces it by choosing the sweep
  // size): the per-tape message sequences must determine every node's
  // output.  A one-message sweep always satisfies it; a longer sweep does
  // whenever no transducer reads or writes cross-node shared state mid-sweep,
  // i.e. for networks without condition variables (no VC/VD/PR nodes).
  // Nodes are added in topological order, so a single ascending sweep sees
  // every pending message; document payload borrows (Message::DocumentRef)
  // must stay valid until DeliverBatch returns.
  void DeliverBatch(int node, int in_port, std::vector<Message>* batch);

  // Attaches the one instrument (profile, observe=full, a sampled batch):
  // each node-port Deliver call of the sweep is bracketed by one pair of
  // clock reads and recorded into `instrument` with its message count (and,
  // through the instrument's trace recorder, as one span).  A bracket covers
  // that node's own work only — the sweep never nests deliveries.  Null
  // detaches; the sweep then pays one branch per node queue.
  void SetInstrument(obs::ProfileAccumulator* instrument) {
    instrument_ = instrument;
  }

  // Records the query provenance of `node` (see NodeProvenance).
  void SetProvenance(int node, SourceSpan span, std::string fragment);
  const NodeProvenance& provenance(int node) const {
    return nodes_[node].provenance;
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int tape_count() const { return static_cast<int>(tapes_.size()); }
  Transducer* node(int id) { return nodes_[id].transducer.get(); }
  const Transducer* node(int id) const { return nodes_[id].transducer.get(); }

  // Wiring of tape `id`, for plan renderers (-1 = unset end).
  struct TapeInfo {
    int producer_node = -1;
    int producer_port = -1;
    int consumer_node = -1;
    int consumer_port = -1;
  };
  TapeInfo tape_info(int id) const {
    const Tape& t = tapes_[id];
    return {t.producer_node, t.producer_port, t.consumer_node,
            t.consumer_port};
  }
  // Number of output ports `node` has wired (1 for most, 2 for SP).
  int out_degree(int node) const {
    return (nodes_[node].out_tapes[0] != -1 ? 1 : 0) +
           (nodes_[node].out_tapes[1] != -1 ? 1 : 0);
  }

  // First node whose name() equals `name`, or nullptr.
  Transducer* FindByName(const std::string& name);

  // Multi-line description: one "id: NAME  in:[tapes] out:[tapes]" per node.
  std::string Describe() const;

  // Graphviz DOT rendering of the network DAG (one box per transducer, one
  // edge per tape) — paste into `dot -Tsvg` to visualize Fig. 12-style
  // diagrams for arbitrary queries.  With a profile report the rendering is
  // heat-annotated: nodes are shaded and sized by self-time share, edges
  // weighted by message volume, and labels carry the provenance span — a
  // flame map of the run.  Label text is DOT-escaped.
  std::string ToDot() const { return ToDot(nullptr); }
  std::string ToDot(const obs::ProfileReport* report) const;

 private:
  struct Node {
    std::unique_ptr<Transducer> transducer;
    // out_tapes[port] = tape id (or -1)
    int out_tapes[2] = {-1, -1};
    int in_tapes[2] = {-1, -1};
    NodeProvenance provenance;
  };

  struct Tape {
    int producer_node = -1;
    int producer_port = -1;
    int consumer_node = -1;
    int consumer_port = -1;
  };

  // Pending buffer of the consumer wired to `node`'s output `port`, or null
  // when the tape dangles (the sink's unused output).
  std::vector<Message>* PendingFor(int node, int port);

  // Debug-mode single-thread guard: delivery binds to the first delivering
  // thread (see base/thread_check.h).  A network handed to a pool worker
  // must be built *and* driven there — the sweep's pending buffers and the
  // zero-copy payload borrowing are per-thread contracts.  The network holds
  // no back-pointer to itself (emitters live on the sweep's stack), so it
  // stays movable between sweeps.
  ThreadAffinity affinity_;
  std::vector<Node> nodes_;
  std::vector<Tape> tapes_;
  // Per-node per-port pending input sequences of the sweep; sized lazily on
  // the first DeliverBatch.  Steady state reuses the vectors' capacity, so a
  // sweep allocates nothing.
  std::vector<std::array<std::vector<Message>, 2>> pending_;
  obs::ProfileAccumulator* instrument_ = nullptr;
};

}  // namespace spex

#endif  // SPEX_SPEX_NETWORK_H_
