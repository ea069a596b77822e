/// \file swf.hpp
/// Parser for the Standard Workload Format (SWF) of the Parallel Workloads
/// Archive — the cluster-log format the moldable-scheduling literature
/// (the paper's evaluation lineage included) benchmarks on. An SWF file is
/// line-oriented: comment lines start with ';' (header comments carry
/// `; Key: value` directives such as MaxProcs), every other non-blank line
/// is one job record of up to 18 whitespace-separated numeric fields, with
/// -1 marking "not available".
///
/// The parser is allocation-conscious and fuzz-hardened: it streams over
/// a caller-owned byte range with std::from_chars (no per-line string or
/// stream is ever built), all output buffers keep capacity across parses,
/// and any byte mutation of a valid file either parses or throws
/// std::invalid_argument with the offending line number — never undefined
/// behaviour (gated by the per-byte truncation/flip fuzz in
/// tests/test_trace.cpp).
///
/// Tolerance contract: comments and blank lines are skipped; a record may
/// stop early after the first four fields (missing trailing fields default
/// to -1, matching archive practice for logs predating newer fields).
/// Hard errors: a non-numeric or non-finite token, a record with fewer
/// than four or more than eighteen fields. Semantic filtering (dropping
/// cancelled jobs, zero runtimes, ...) is the tape compiler's job
/// (trace/tape.hpp), not the parser's.
///
/// Operator documentation (field mapping, replay pipeline, SLO schema):
/// docs/TRACES.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace moldsched {

/// One SWF job record. Field order and semantics follow the SWF
/// definition; every field is -1 when the log does not provide it.
/// Integer-valued fields accept integral spellings like "3.0" (archives
/// are not consistent) but reject fractional values.
struct SwfJob {
  std::int64_t id = -1;          ///< 1: job number
  double submit = -1.0;          ///< 2: submit time, seconds from log start
  double wait = -1.0;            ///< 3: wait time (s)
  double run_time = -1.0;        ///< 4: run time (s)
  std::int64_t used_procs = -1;  ///< 5: allocated processors
  double avg_cpu = -1.0;         ///< 6: average CPU time used (s)
  double used_mem = -1.0;        ///< 7: used memory (KB)
  std::int64_t req_procs = -1;   ///< 8: requested processors
  double req_time = -1.0;        ///< 9: requested time (s)
  double req_mem = -1.0;         ///< 10: requested memory (KB)
  std::int64_t status = -1;      ///< 11: 1 completed, 0 failed, 5 cancelled
  std::int64_t user = -1;        ///< 12: user id
  std::int64_t group = -1;       ///< 13: group id
  std::int64_t app = -1;         ///< 14: executable/application number
  std::int64_t queue = -1;       ///< 15: queue number
  std::int64_t partition = -1;   ///< 16: partition number
  std::int64_t prev_job = -1;    ///< 17: preceding job number
  double think_time = -1.0;      ///< 18: think time from preceding job (s)
};

/// A parsed SWF log: header directives plus the job records in file
/// order. Buffers keep capacity across parses, so one pooled SwfTrace
/// ingests many files without reallocation once warm.
struct SwfTrace {
  std::vector<SwfJob> jobs;
  std::int64_t max_procs = -1;   ///< `; MaxProcs:` header, -1 when absent
  std::int64_t max_queues = -1;  ///< `; MaxQueues:` header, -1 when absent
  std::int64_t max_nodes = -1;   ///< `; MaxNodes:` header, -1 when absent
  std::size_t comment_lines = 0; ///< comment/blank lines skipped

  /// Largest processor count any record mentions (requested or used) —
  /// the machine-size fallback when no MaxProcs header is present.
  [[nodiscard]] std::int64_t observed_max_procs() const noexcept;

  /// Empty all fields; capacity kept.
  void clear();
};

/// Parse an SWF byte range into `out` (cleared first; capacity kept).
/// Never reads outside [data, data + size). Throws std::invalid_argument
/// naming the 1-based line of the first malformed record (see the file
/// comment for the tolerance contract).
void parse_swf(const char* data, std::size_t size, SwfTrace& out);

/// Convenience form over a string view (same contract).
void parse_swf(std::string_view text, SwfTrace& out);

/// Read `path` into a pooled buffer and parse it. Throws
/// std::runtime_error when the file cannot be read, std::invalid_argument
/// on a malformed record.
void load_swf_file(const std::string& path, SwfTrace& out);

}  // namespace moldsched
