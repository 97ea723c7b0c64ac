#include "sim/core_model.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/snapshot.h"
#include "trace/stream.h"

namespace bb::sim {

CoreModel::CoreModel(const CoreParams& params) : params_(params) {
  // base CPI in picoseconds per instruction, kept as a rational so long
  // runs accumulate no floating-point drift: cpi / freq_ghz ns/inst.
  const double ps_per_inst = params_.base_cpi / params_.freq_ghz * 1000.0;
  cpi_ticks_num_ = static_cast<Tick>(
      ps_per_inst * static_cast<double>(kCpiTicksDen.value()) + 0.5);
}

void RunLoopState::serialize(snap::Archive& ar) {
  ar.count(cores);
  for (Core& c : cores) {
    ar.u64(c.now);
    ar.u64(c.inst);
    ar.u64(c.misses);
    ar.u64(c.inst_at_reset);
    ar.count(c.rob);
    for (auto& [inst_at_issue, complete] : c.rob) {
      ar.u64(inst_at_issue);
      ar.u64(complete);
    }
  }
  ar.u64(total_inst);
  ar.u64(measured_misses);
  ar.u64(inst_at_reset);
  ar.u64(tick_at_reset);
  ar.flag(warm);
  ar.u64(records);
}

std::vector<CoreLane> CoreModel::homogeneous_lanes(
    const trace::WorkloadProfile& profile, u64 seed, u32 cores) {
  std::vector<CoreLane> lanes;
  const u32 n = std::max<u32>(1, cores);
  lanes.reserve(n);
  for (u32 c = 0; c < n; ++c) {
    lanes.push_back({profile, seed + 0x1000003ULL * c, /*base=*/0});
  }
  return lanes;
}

CoreResult CoreModel::run_sources(
    const std::vector<trace::TraceSource*>& sources,
    const std::vector<Addr>& bases, u64 target_instructions,
    hmm::HybridMemoryController& hmmc, u64 warmup_instructions,
    const RunControl* control) {
  BB_CHECK(!sources.empty(), "run_sources needs at least one source");
  BB_CHECK(sources.size() == bases.size(),
           "run_sources needs one address base per source");
  CoreResult res;
  const u32 n = static_cast<u32>(sources.size());
  RunLoopState ls;
  if (control != nullptr && control->resume != nullptr) {
    // Resuming: the loop state picks up mid-run; the memory system and
    // trace sources were restored by the caller to the same record
    // boundary, so the replay continues bit-exactly.
    ls = *control->resume;
    BB_CHECK(ls.cores.size() == sources.size(),
             "resume state core count must match the source count");
  } else {
    ls.cores.resize(n);
    ls.warm = warmup_instructions == 0;
    if (ls.warm) {
      // No warmup: the measured phase starts at tick 0. Announce it anyway
      // so the warmup_end trace event and epoch-0 alignment are
      // unconditional.
      hmmc.on_warmup_end(0);
    }
  }

  const u64 checkpoint_every =
      control != nullptr ? control->checkpoint_every_records : 0;
  const u64 poll_every = checkpoint_every > 0 ? checkpoint_every : 65536;
  u64 next_mark = ls.records + poll_every;

  const u64 end_inst = target_instructions + warmup_instructions;
  while (ls.total_inst < end_inst) {
    if (control != nullptr && ls.records >= next_mark) {
      next_mark = ls.records + poll_every;
      if (checkpoint_every > 0 && control->on_checkpoint) {
        control->on_checkpoint(ls);
      }
      if (control->interrupted && control->interrupted()) {
        throw RunInterrupted{};
      }
    }
    if (!ls.warm && ls.total_inst >= warmup_instructions) {
      ls.warm = true;
      ls.inst_at_reset = ls.total_inst;
      for (auto& core : ls.cores) {
        ls.tick_at_reset = std::max(ls.tick_at_reset, core.now);
        core.inst_at_reset = core.inst;
        core.misses = 0;
      }
      hmmc.reset_stats();
      hmmc.hbm().reset_stats();
      hmmc.dram().reset_stats();
      hmmc.on_warmup_end(ls.tick_at_reset);
      ls.measured_misses = 0;
    }
    // Advance the core that is furthest behind in simulated time, so
    // requests reach the memory system in (approximate) time order.
    u32 next = 0;
    for (u32 c = 1; c < n; ++c) {
      if (ls.cores[c].now < ls.cores[next].now) next = c;
    }
    RunLoopState::Core& core = ls.cores[next];

    const trace::TraceRecord rec = sources[next]->next();
    ++ls.records;
    if (capture_ != nullptr) {
      // Record the merged stream exactly as the memory system sees it:
      // lane base folded in, consumption order preserved.
      capture_->append({rec.inst_gap, bases[next] + rec.addr, rec.type});
    }
    ls.total_inst += rec.inst_gap;

    // Advance through the gap in segments bounded by ROB retirement: the
    // core may run only rob_window instructions past the oldest
    // outstanding miss, so an isolated miss exposes (almost) its full
    // latency instead of hiding behind the next gap.
    u64 remaining = rec.inst_gap;
    while (!core.rob.empty()) {
      const u64 stall_inst =
          core.rob.front().first + params_.rob_window;
      if (core.inst + remaining <= stall_inst) break;
      const u64 adv = stall_inst > core.inst ? stall_inst - core.inst : 0;
      core.inst += adv;
      remaining -= adv;
      core.now += kCpiTicksDen.div(adv * cpi_ticks_num_);
      core.now = std::max(core.now, core.rob.front().second);
      core.rob.pop_front();
    }
    core.inst += remaining;
    core.now += kCpiTicksDen.div(remaining * cpi_ticks_num_);

    // MSHR/MLP limit.
    if (core.rob.size() >= params_.mlp) {
      core.now = std::max(core.now, core.rob.front().second);
      core.rob.pop_front();
    }

    const Tick issue = core.now + params_.hierarchy_latency;
    const auto r = hmmc.access(bases[next] + rec.addr, rec.type, issue, next);
    core.rob.push_back({core.inst, r.complete});
    ++ls.measured_misses;
    ++core.misses;
  }

  Tick end = 0;
  for (auto& core : ls.cores) {
    for (const auto& o : core.rob) core.now = std::max(core.now, o.second);
    end = std::max(end, core.now);
  }
  hmmc.drain(end);

  res.instructions = ls.total_inst - ls.inst_at_reset;
  res.misses = ls.measured_misses;
  res.elapsed = end - ls.tick_at_reset;
  res.per_core.resize(n);
  for (u32 c = 0; c < n; ++c) {
    res.per_core[c].instructions =
        ls.cores[c].inst - ls.cores[c].inst_at_reset;
    res.per_core[c].misses = ls.cores[c].misses;
    res.per_core[c].elapsed = ls.cores[c].now > ls.tick_at_reset
                                  ? ls.cores[c].now - ls.tick_at_reset
                                  : 0;
  }
  return res;
}

}  // namespace bb::sim
