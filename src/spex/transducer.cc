#include "spex/transducer.h"

namespace spex {

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
