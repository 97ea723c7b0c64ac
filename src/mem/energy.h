// IDD/VDD-based DRAM energy accounting (DRAMPower-style, simplified).
//
// Dynamic energy is accumulated per command:
//   ACT+PRE pair: VDD * (IDD0*tRC - (IDD3N*tRAS + IDD2N*(tRC-tRAS)))
//   RD burst:     VDD * (IDD4R - IDD3N) * tBURST
//   WR burst:     VDD * (IDD4W - IDD3N) * tBURST
// with currents in mA and times in ns, giving picojoules. Only dynamic
// energy is modelled: it is what the paper reports and the figures use.
#pragma once

#include "common/types.h"
#include "mem/timing.h"

namespace bb::mem {

class EnergyModel {
 public:
  explicit EnergyModel(const DramTimingParams& p) : p_(&p) {}

  void on_act_pre() { ++acts_; }
  void on_read_burst(u64 n = 1) { rd_bursts_ += n; }
  void on_write_burst(u64 n = 1) { wr_bursts_ += n; }

  u64 act_count() const { return acts_; }
  u64 read_burst_count() const { return rd_bursts_; }
  u64 write_burst_count() const { return wr_bursts_; }

  /// Dynamic energy so far, picojoules (all devices of a channel act
  /// and burst together).
  double dynamic_pj() const {
    return (static_cast<double>(acts_) * act_pre_pj() +
            static_cast<double>(rd_bursts_) * read_burst_pj() +
            static_cast<double>(wr_bursts_) * write_burst_pj()) *
           static_cast<double>(p_->devices_per_channel);
  }

  /// Energy of one ACT/PRE pair, picojoules.
  double act_pre_pj() const {
    const double trc_ns = p_->tck_ns * static_cast<double>(p_->tRAS + p_->tRP);
    const double tras_ns = p_->tck_ns * static_cast<double>(p_->tRAS);
    const double trp_ns = trc_ns - tras_ns;
    return p_->vdd *
           (p_->idd0 * trc_ns - (p_->idd3n * tras_ns + p_->idd2n * trp_ns));
  }

  /// Energy of one read burst, picojoules.
  double read_burst_pj() const {
    return p_->vdd * (p_->idd4r - p_->idd3n) * ticks_to_ns(p_->burst_ticks());
  }

  /// Energy of one write burst, picojoules.
  double write_burst_pj() const {
    return p_->vdd * (p_->idd4w - p_->idd3n) * ticks_to_ns(p_->burst_ticks());
  }

  void reset() { acts_ = rd_bursts_ = wr_bursts_ = 0; }

  /// Snapshot support: reinstates the command counters of a saved run.
  void restore_counts(u64 acts, u64 rd_bursts, u64 wr_bursts) {
    acts_ = acts;
    rd_bursts_ = rd_bursts;
    wr_bursts_ = wr_bursts;
  }

 private:
  const DramTimingParams* p_;
  u64 acts_ = 0;
  u64 rd_bursts_ = 0;
  u64 wr_bursts_ = 0;
};

}  // namespace bb::mem
