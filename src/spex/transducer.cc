#include "spex/transducer.h"

namespace spex {

size_t RunContext::BuildSweep(const StreamEvent* events, size_t count,
                              std::vector<Message>* batch) {
  batch->clear();
  batch->reserve(count);
  SymbolTable* symbols = symbol_table();
  size_t n = 0;
  while (n < count) {
    const StreamEvent& e = events[n++];
    Message m = Message::DocumentRef(e);
    if (m.symbol == kNoSymbol && e.kind == EventKind::kStartElement) {
      m.symbol = symbols->Intern(e.name);
    }
    batch->push_back(std::move(m));
    if (e.kind == EventKind::kEndDocument) break;
  }
  return n;
}

void RunContext::EndRound() {
  if (!options.eager_formula_update || !allow_variable_gc ||
      retired_variables.empty()) {
    return;
  }
  for (VarId v : retired_variables) assignment.Erase(v);
  retired_variables.clear();
}

std::string TransducerTrace::ToString() const {
  std::string out;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += ' ';
    if (groups[g].empty()) {
      out += '-';
      continue;
    }
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(groups[g][i]);
    }
  }
  return out;
}

const char* DepthSymbolName(DepthSymbol s) {
  switch (s) {
    case DepthSymbol::kLevel:
      return "l";
    case DepthSymbol::kMatch:
      return "m";
    case DepthSymbol::kScopeStart:
      return "s";
    case DepthSymbol::kNestedScope:
      return "ns";
    case DepthSymbol::kScopeEnd:
      return "e";
  }
  return "?";
}

}  // namespace spex
