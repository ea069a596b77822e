/// \file swf_write.hpp
/// SWF emission: the write half of trace/swf.hpp plus a deterministic
/// synthetic-log generator, so tests and benches exercise the full
/// ingest pipeline without ever fetching a real archive log. The bundled
/// mini-trace under tests/data/ is exactly `synthesize_swf` output (the
/// round-trip is regression-gated by tests/test_trace.cpp): write_swf of
/// `synthesize_swf` with default options and `Rng(20040627)` regenerates
/// it.
///
/// write_swf emits doubles with enough digits to round-trip bit-exactly
/// through parse_swf, so parse(write(trace)) == trace field for field.

#pragma once

#include <cstdint>
#include <iosfwd>

#include "trace/swf.hpp"
#include "util/rng.hpp"

namespace moldsched {

/// Write `trace` as SWF text: header directives for every present
/// MaxProcs/MaxQueues/MaxNodes value, then one 18-field record per job in
/// trace order. Round-trips bit-exactly through parse_swf.
void write_swf(const SwfTrace& trace, std::ostream& out);

/// Knobs of the synthetic workload log. The defaults produce the bundled
/// ~200-job mini-trace shape: Poisson submits, log-uniform runtimes over
/// three decades, power-of-two-leaning processor requests, a small queue
/// set, and a realistic sprinkle of failed/cancelled records (which the
/// tape compiler must filter out).
struct SynthSwfOptions {
  int jobs = 200;              ///< records to emit
  int max_procs = 64;          ///< cluster size (MaxProcs header)
  int queues = 3;              ///< queue ids drawn from [0, queues)
  double mean_gap = 90.0;      ///< mean inter-submit gap (s, exponential)
  double run_lo = 10.0;        ///< runtime lower bound (s)
  double run_hi = 10000.0;     ///< runtime upper bound (s, log-uniform)
  double frac_failed = 0.05;   ///< records with status 0 (failed)
  double frac_cancelled = 0.05;///< records with status 5 (cancelled, run -1)
};

/// Generate a synthetic SWF log into `trace` (cleared first).
/// Deterministic in (options, rng state). Throws std::invalid_argument on
/// non-positive jobs/max_procs/queues/mean_gap or an empty runtime range.
void synthesize_swf(const SynthSwfOptions& options, Rng& rng, SwfTrace& trace);

}  // namespace moldsched
