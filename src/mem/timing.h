// DRAM device timing and power parameters.
//
// The two presets reproduce Table I of the paper exactly:
//   * HBM2: 1 GB, 8 x 128-bit channels, 512 B interleave, 8 banks/channel,
//     tCAS-tRCD-tRP = 7-7-7 (cycles), VDD 1.2 V and the listed IDD values.
//   * Off-chip DDR4-3200: 10 GB, 2 x 64-bit channels, 8 banks/channel,
//     tCAS-tRCD-tRP = 22-22-22, VDD 1.2 V and the listed IDD values.
//
// Timings are stored in device clock cycles (tCK); the device model converts
// to ticks (picoseconds). Energy uses the standard JEDEC/DRAMPower formulas
// over IDD currents (see energy.h).
#pragma once

#include <string>

#include "common/types.h"
#include "mem/request_queue.h"

namespace bb::mem {

struct DramTimingParams {
  std::string name;

  /// Request-queue layer (FR-FCFS write queues, MSHRs). Default-off:
  /// accesses go straight to the banks (--queue-depth=0).
  QueueConfig queue;

  // Geometry.
  u64 capacity_bytes = 0;
  u32 channels = 1;
  u32 banks_per_channel = 8;
  u32 bus_bits = 64;          ///< data-bus width per channel
  u64 interleave_bytes = 0;   ///< channel interleave granularity
  u64 row_bytes = 2 * KiB;    ///< row-buffer size per bank
  u32 burst_length = 8;       ///< transfers per column command

  // Clock.
  Ns tck_ns = 1.0;  ///< clock period; data rate is 2 transfers per tCK

  // Core timings, in tCK cycles.
  u32 tCAS = 7;
  u32 tRCD = 7;
  u32 tRP = 7;
  u32 tRAS = 17;
  u32 tWTR = 4;   ///< write-to-read turnaround on a bank
  u32 tRTW = 2;   ///< read-to-write turnaround on the bus

  // Refresh: every tREFI the channel stalls for tRFC (all banks).
  Ns trefi_ns = 3900.0;
  Ns trfc_ns = 350.0;
  bool refresh_enabled = true;

  // Power (JEDEC spec values): VDD in volts, IDD in milliamperes. IDD
  // currents are per device; a 64-bit DDR4 channel is built from eight x8
  // chips that activate and burst together, while HBM's per-channel
  // figures already cover the whole 128-bit channel.
  u32 devices_per_channel = 1;
  double vdd = 1.2;
  double idd0 = 0;    ///< one-bank ACT-PRE cycling current
  double idd2p = 0;   ///< precharge power-down standby
  double idd2n = 0;   ///< precharge standby
  double idd3p = 0;   ///< active power-down standby
  double idd3n = 0;   ///< active standby
  double idd4w = 0;   ///< burst write
  double idd4r = 0;   ///< burst read
  double idd5 = 0;    ///< refresh
  double idd6 = 0;    ///< self refresh

  /// Bytes transferred by one column command (burst).
  u64 burst_bytes() const {
    return static_cast<u64>(bus_bits / 8) * burst_length;
  }

  /// Duration of one burst on the data bus, in ticks. Double data rate:
  /// burst_length transfers take burst_length/2 clock cycles.
  Tick burst_ticks() const {
    return ns_to_ticks(tck_ns * static_cast<double>(burst_length) / 2.0);
  }

  Tick cycles_to_ticks(u32 cycles) const {
    return ns_to_ticks(tck_ns * static_cast<double>(cycles));
  }

  u32 rows_per_bank() const {
    const u64 bank_bytes =
        capacity_bytes / channels / banks_per_channel;
    return static_cast<u32>(bank_bytes / row_bytes);
  }

  /// Peak data bandwidth across all channels, bytes per second.
  double peak_bandwidth_bps() const {
    const double transfers_per_s = 2.0 / (tck_ns * 1e-9);
    return static_cast<double>(channels) * (bus_bits / 8.0) * transfers_per_s;
  }

  /// HBM2 preset (Table I).
  static DramTimingParams hbm2_1gb();

  /// Off-chip DDR4-3200 preset (Table I).
  static DramTimingParams ddr4_3200_10gb();
};

}  // namespace bb::mem
