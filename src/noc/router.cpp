#include "noc/router.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace annoc::noc {

Router::Router(NodeId id, std::uint32_t buffer_flits,
               std::uint32_t pipeline_latency, FlowControlKind fc_kind,
               const GssParams& gss, std::uint32_t num_vcs)
    : id_(id),
      pipeline_(pipeline_latency),
      fc_kind_(fc_kind),
      num_vcs_(num_vcs) {
  ANNOC_ASSERT_MSG(num_vcs >= 1, "at least one virtual channel");
  inputs_.reserve(static_cast<std::size_t>(kNumPorts) * num_vcs);
  for (std::uint32_t i = 0; i < kNumPorts * num_vcs; ++i) {
    inputs_.emplace_back(buffer_flits);
  }
  for (auto& fc : fc_) {
    fc = make_flow_controller(fc_kind, gss, kNumPorts * num_vcs);
  }
}

void Router::set_observer(obs::EventSink* sink) {
  obs_ = sink;
  for (int p = 0; p < kNumPorts; ++p) {
    fc_[p]->attach_observer(sink, id_, static_cast<std::uint8_t>(p));
  }
}

std::optional<std::uint32_t> Router::find_vc(Port p,
                                             const Packet& pkt) const {
  const std::uint32_t v = num_vcs_ == 1 ? 0 : pkt.src_core % num_vcs_;
  if (input(p, v).can_accept(pkt.flits)) return v;
  return std::nullopt;
}

std::uint32_t Router::free_flits(Port p) const {
  std::uint32_t total = 0;
  for (std::uint32_t v = 0; v < num_vcs_; ++v) {
    const InputBuffer& buf = input(p, v);
    total += buf.capacity_flits() -
             std::min(buf.capacity_flits(), buf.used_flits());
  }
  return total;
}

std::size_t Router::buffered_packets() const {
  std::size_t n = 0;
  for (const InputBuffer& b : inputs_) n += b.size();
  return n;
}

Cycle Router::next_event(Cycle now) const {
  Cycle h = kNeverCycle;
  for (int p = 0; p < kNumPorts; ++p) {
    const Transfer& tr = outputs_[p];
    if (tr.active) h = std::min(h, tr.end);
  }
  for (const InputBuffer& buf : inputs_) {
    if (buf.empty()) continue;
    const Port out = buf.front_out();
    // A parked head (unreachable destination) cannot move until a
    // fault edge reroutes it — and fault edges are already horizons.
    if (out >= kNumPorts) continue;
    // A head behind a busy output can only move once the transfer
    // frees — already covered by tr.end above (a lower bound is
    // legal; the channel may stay contested longer).
    if (outputs_[out].active) continue;
    const Packet& hd = buf.front();
    const Cycle lands = hd.head_arrival + pipeline_;
    const Cycle eligible = lands > 0 ? lands - 1 : 0;
    // Eligible head on a free output: arbitration (token aging,
    // downstream/sink probing, per-cycle stall counters) must run
    // every cycle.
    h = std::min(h, std::max(eligible, now));
    if (h <= now) return now;
  }
  return h;
}

void Router::on_arrival(Packet&& pkt, Port in, std::uint32_t vc, Port out,
                        Cycle now) {
  ANNOC_ASSERT(vc < num_vcs_);
  InputBuffer& buf = input(in, vc);
  if (out >= kNumPorts) {
    // Parked (destination unreachable under the current dead-link set):
    // buffer it without pooling; no flow controller owns it until a
    // reroute assigns a real output.
    buf.push(std::move(pkt), kPortParked);
    return;
  }
  // The arrival hook sees every packet already pooled here, excluding
  // the newcomer — append to the pool only afterwards.
  fc_[out]->on_packet_arrival(pkt, pools_[out], now);
  buf.push(std::move(pkt), out);
  pools_[out].push_back(&buf.back());
  invalidate(out);
}

void Router::reroute(const std::function<Port(const Packet&)>& fn) {
  for (auto& pool : pools_) pool.clear();
  for (InputBuffer& buf : inputs_) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      Packet& p = buf.at(i);
      const Port out = fn(p);
      buf.set_out(i, out);
      if (out < kNumPorts) pools_[out].push_back(&p);
    }
  }
  for (int p = 0; p < kNumPorts; ++p) invalidate(static_cast<Port>(p));
}

Router::Memo Router::decide(Port out, Cycle now) {
  Memo m;
  m.until = kNeverCycle;
  cand_scratch_.clear();
  source_scratch_.clear();
  for (int in = 0; in < kNumPorts; ++in) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      InputBuffer& buf = input(static_cast<Port>(in), v);
      if (buf.empty() || buf.front_out() != out) continue;
      Packet& hd = buf.front();
      // A head flit is grantable the cycle it lands (pipeline_latency 1
      // = one cycle per hop); extra pipeline stages delay eligibility.
      if (now + 1 < hd.head_arrival + pipeline_) {
        m.until = std::min(m.until, hd.head_arrival + pipeline_ - 1);
        continue;
      }
      cand_scratch_.push_back(Candidate{
          &hd, static_cast<std::uint32_t>(in) * num_vcs_ + v});
      source_scratch_.push_back(VcId{static_cast<Port>(in), v});
    }
  }
  if (cand_scratch_.empty()) {
    m.kind = Memo::Kind::kNone;
    return m;
  }
  FlowController& fc = *fc_[out];
  const std::optional<std::size_t> sel =
      fc.select(cand_scratch_, pools_[out], now);
  m.until = std::min(m.until, fc.stable_until(cand_scratch_, now));
  if (sel) {
    m.kind = Memo::Kind::kWinner;
    m.winner = source_scratch_[*sel];
  } else {
    m.kind = Memo::Kind::kDeclined;
  }
  return m;
}

void Router::audit_replay(Port out, Cycle now) {
  const Memo& memo = memo_[out];
  token_scratch_.clear();
  for (const Packet* p : pools_[out]) token_scratch_.push_back(p->gss_tokens);
  const Memo fresh = decide(out, now);
  bool same = fresh.kind == memo.kind &&
              (fresh.kind != Memo::Kind::kWinner || fresh.winner == memo.winner);
  for (std::size_t i = 0; i < token_scratch_.size(); ++i) {
    same = same && pools_[out][i]->gss_tokens == token_scratch_[i];
  }
  if (!same) {
    audit_failed(out, now, "replayed a decision that a fresh select() does "
                           "not make");
  }
}

void Router::audit_failed(Port out, Cycle now, const char* what) const {
  std::fprintf(stderr, "arbitration memo audit: router %u output %s at cycle "
               "%llu %s\n",
               static_cast<unsigned>(id_), to_string(out),
               static_cast<unsigned long long>(now), what);
  ANNOC_ASSERT_MSG(false,
                   "arbitration memo missed an invalidation (see stderr); "
                   "DESIGN.md \"Arbitration memo\" lists every input");
  std::abort();
}

std::optional<VcId> Router::arbitrate(Port out, Cycle now) {
  ANNOC_ASSERT(!outputs_[out].active);
  // Candidates are always pool members (a candidate is a buffered head
  // routed to `out`; the pool holds every buffered packet routed to
  // `out`), so an empty pool means there is nothing to decide — and on
  // saturated traffic most (output, cycle) pairs hit exactly this case.
  if (pools_[out].empty()) return std::nullopt;
  Memo& memo = memo_[out];
  if (now >= memo.until) {
    memo = decide(out, now);
  } else if (audit_) {
    audit_replay(out, now);
  }
  // A replayed round counts and emits exactly what a fresh one would.
  switch (memo.kind) {
    case Memo::Kind::kNone:
      return std::nullopt;
    case Memo::Kind::kWinner:
      ++stats_.arbitration_rounds;
      return memo.winner;
    case Memo::Kind::kDeclined:
      break;
  }
  ++stats_.arbitration_rounds;
  ++stats_.idle_grants;
  ANNOC_OBS_EMIT(obs_, on_stall(obs::StallEvent{
                           .at = now,
                           .router = id_,
                           .out_port = out,
                           .cause = obs::StallCause::kGssExclusion}));
  return std::nullopt;
}

Packet Router::grant(const VcId& in, Port out, Cycle now,
                     Cycle extra_channel_cycles) {
  InputBuffer& buf = input(in.port, in.vc);
  ANNOC_ASSERT(!buf.empty());
  ANNOC_ASSERT(buf.front_out() == out);
  // Drop the departing head from `out`'s pool before pop() recycles its
  // slot.
  auto& pool = pools_[out];
  const auto pit = std::find(pool.begin(), pool.end(), &buf.front());
  ANNOC_ASSERT(pit != pool.end());
  pool.erase(pit);
  Packet pkt = buf.pop();
  invalidate(out);
  // The next packet in this buffer becomes a candidate for its output.
  if (!buf.empty() && buf.front_out() < kNumPorts) {
    invalidate(buf.front_out());
  }

  fc_[out]->on_scheduled(pkt, now);

  Transfer& tr = outputs_[out];
  ANNOC_ASSERT(!tr.active);
  tr.active = true;
  tr.start = now;
  // One flit per cycle from the grant; the tail cannot leave before it
  // has arrived here (virtual cut-through). A degraded link holds the
  // channel extra cycles on top, and the later tail arrival propagates
  // the stall downstream.
  tr.end = std::max(now + pkt.flits, pkt.tail_arrival + 1) +
           extra_channel_cycles;

  ++stats_.packets_forwarded;
  stats_.flits_forwarded += pkt.flits;
  stats_.output_busy[out] += tr.end - tr.start;
  ANNOC_OBS_EMIT(obs_, on_arbitration(obs::ArbitrationEvent{
                           .at = now,
                           .router = id_,
                           .out_port = out,
                           .packet_id = pkt.id,
                           .core = pkt.src_core,
                           .priority = pkt.is_priority(),
                           .tokens = pkt.gss_tokens,
                           .flits = pkt.flits}));

  // Stamp downstream arrival: the head lands one cycle after the grant,
  // the tail when the channel frees.
  pkt.head_arrival = now + 1;
  pkt.tail_arrival = tr.end;
  return pkt;
}

void Router::dump(std::ostream& os, Cycle now) const {
  bool header = false;
  const auto emit_header = [&] {
    if (!header) {
      os << "  router " << id_ << ":\n";
      header = true;
    }
  };
  for (int p = 0; p < kNumPorts; ++p) {
    const Transfer& tr = outputs_[p];
    if (!tr.active) continue;
    emit_header();
    os << "    out " << to_string(static_cast<Port>(p))
       << ": channel busy until cycle " << tr.end << "\n";
  }
  for (int in = 0; in < kNumPorts; ++in) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const InputBuffer& buf = input(static_cast<Port>(in), v);
      if (buf.empty()) continue;
      emit_header();
      os << "    in " << to_string(static_cast<Port>(in)) << "/vc" << v
         << ": " << buf.size() << " pkt(s), " << buf.used_flits() << "/"
         << buf.capacity_flits() << " flits";
      const Port out = buf.front_out();
      const Packet& hd = buf.front();
      os << "; head pkt " << hd.id << " (core " << hd.src_core << " -> node "
         << hd.dst_node << ", " << hd.flits << " flits) via ";
      if (out >= kNumPorts) {
        os << "PARKED (destination unreachable)";
      } else {
        os << to_string(out);
        if (outputs_[out].active) {
          os << " [blocked: output busy until " << outputs_[out].end << "]";
        } else if (now + 1 < hd.head_arrival + pipeline_) {
          os << " [in pipeline until " << hd.head_arrival + pipeline_ << "]";
        } else {
          os << " [eligible: waiting on arbitration/downstream]";
        }
      }
      os << "\n";
    }
  }
}

}  // namespace annoc::noc
