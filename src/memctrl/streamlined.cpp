#include "memctrl/streamlined.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace annoc::memctrl {

StreamlinedSubsystem::StreamlinedSubsystem(const sdram::DeviceConfig& dev_cfg,
                                           const StreamlinedConfig& cfg)
    : MemorySubsystem(dev_cfg),
      cfg_(cfg),
      engine_(device_, cfg.window_depth, cfg.lookahead, cfg.reorder_depth),
      input_(/*capacity=*/cfg.input_flits) {}

bool StreamlinedSubsystem::can_accept(const noc::Packet& pkt) const {
  if (input_.full()) return false;
  const std::uint32_t charged = std::min(pkt.flits, cfg_.input_flits);
  return input_used_flits_ + charged <= cfg_.input_flits ||
         (input_.empty() && engine_.can_accept());
}

void StreamlinedSubsystem::deliver(noc::Packet&& pkt, Cycle now) {
  // Event-scheduler path: a delivery can land while this subsystem
  // sleeps (its next wakeup is the packet's tail arrival, later than
  // now). Dense stepping would have ticked it on every cycle since
  // last_tick_ and counted each as starved (engine idle, input empty
  // right up to this push); credit them here. Dense stepping (and the
  // event core's dense fallback) makes this a no-op: it ticked this
  // very cycle (last_tick_ == now).
  if (engine_.idle() && input_.empty() && last_tick_ != kNeverCycle &&
      now > last_tick_) {
    starved_ += now - last_tick_;
    last_tick_ = now;
  }
  input_used_flits_ += std::min(pkt.flits, cfg_.input_flits);
  const bool ok = input_.push(std::move(pkt));
  ANNOC_ASSERT_MSG(ok, "deliver() without can_accept()");
}

void StreamlinedSubsystem::tick(Cycle now) {
  // Cycles the event scheduler skipped since last_tick_: nothing was
  // admitted, and a delivery in the gap moves last_tick_ (deliver()),
  // so "engine idle and input empty" held for every skipped cycle
  // exactly when it holds right now, before this tick's admissions.
  // Dense stepping has a zero gap and is unaffected.
  if (last_tick_ != kNeverCycle && now > last_tick_ + 1 && engine_.idle() &&
      input_.empty()) {
    starved_ += now - last_tick_ - 1;
  }
  last_tick_ = now;
  // Admit requests whose tail has fully arrived, in order.
  while (!input_.empty() && engine_.can_accept() &&
         now >= input_.front().mem_arrival) {
    noc::Packet pkt = input_.pop();
    input_used_flits_ -= std::min(pkt.flits, cfg_.input_flits);
    engine_.enqueue(std::move(pkt));
  }
  if (engine_.idle() && input_.empty()) ++starved_;
  engine_.tick(now, completions_);
}

Cycle StreamlinedSubsystem::next_event(Cycle now) const {
  if (!engine_.idle()) return now;
  Cycle h = engine_.next_event(now);  // device-internal events
  if (!input_.empty()) {
    h = std::min(h, std::max(input_.front().mem_arrival, now));
  }
  return h;
}

}  // namespace annoc::memctrl
