#include "spex/input_transducer.h"

namespace spex {

InputTransducer::InputTransducer() : Transducer("IN") {}

void InputTransducer::OnBatch(int port, Message* messages, size_t count,
                              BatchEmitter* out) {
  (void)port;
  size_t i = 0;
  if (!activated_) [[unlikely]] {
    for (; i < count && !activated_; ++i) {
      Message& m = messages[i];
      if (m.is_document() && m.event_kind == EventKind::kStartDocument) {
        Fire(1);
        activated_ = true;
        EmitTo(out, 0, Message::Activation(Formula::True()));
      }
      EmitTo(out, 0, std::move(m));
    }
  }
  // Steady state: IN forwards everything unchanged.  O(1) per batch — the
  // rest of the input becomes the deferred run (swapped downstream).
  stats_.messages_out += static_cast<int64_t>(count - i);
  out->Forward(0, messages + i, count - i);
}

}  // namespace spex
