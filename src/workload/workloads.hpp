// Workload harness: the executable scenarios behind the tests, benchmarks
// and examples. Every runner drives an abstract stm::Stm, so each scenario
// sweeps identically across all implementations.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/step_counter.hpp"
#include "stm/api.hpp"

namespace optm::wl {

/// Aggregated outcome of a multi-threaded run.
struct RunResult {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  sim::StepCounts steps;               // summed over all processes
  std::uint64_t validation_steps = 0;  // summed (Theorem 3 quantity)
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double seconds = 0.0;

  [[nodiscard]] double commits_per_second() const noexcept {
    return seconds > 0 ? static_cast<double>(commits) / seconds : 0.0;
  }
  [[nodiscard]] double abort_ratio() const noexcept {
    const auto attempts = commits + aborts;
    return attempts > 0 ? static_cast<double>(aborts) / static_cast<double>(attempts)
                        : 0.0;
  }
  [[nodiscard]] double steps_per_read() const noexcept {
    return reads > 0 ? static_cast<double>(steps.total()) / static_cast<double>(reads)
                     : 0.0;
  }
};

// --- bank transfers (quickstart / integrity workload) ------------------------

struct BankParams {
  std::uint32_t threads = 2;
  std::uint32_t accounts = 64;
  std::uint64_t transfers_per_thread = 1000;
  std::uint64_t initial_balance = 1000;
  std::uint64_t seed = 42;
};

/// Random transfers between accounts. Money conservation is the integrity
/// oracle: final_total must equal accounts * initial_balance.
struct BankResult {
  RunResult run;
  std::uint64_t final_total = 0;
  std::uint64_t expected_total = 0;
};
[[nodiscard]] BankResult run_bank(stm::Stm& stm, const BankParams& params);

// --- random register mix (recorder / verification workload) -------------------

struct MixParams {
  std::uint32_t threads = 2;
  std::uint32_t vars = 8;
  std::uint64_t txs_per_thread = 50;
  std::uint32_t ops_per_tx = 4;
  double write_ratio = 0.5;
  std::uint64_t seed = 1;
  /// Abort a fraction of transactions voluntarily (tryA).
  double voluntary_abort_ratio = 0.05;
};

/// Random reads and value-unique writes — the workload used with the
/// Recorder: its histories satisfy the §5.4 preconditions, so recorded runs
/// can be certificate-verified for opacity.
[[nodiscard]] RunResult run_random_mix(stm::Stm& stm, const MixParams& params);

/// The same mix with its `threads` processes as logical processes driven
/// from the calling thread (one ThreadCtx each, §6.1's exact-interleaving
/// idiom): at every step a seeded scheduler picks a process with work left
/// and advances it by one transaction step — begin, one operation, or
/// tryC/tryA. Each process draws its operations as run_random_mix's
/// process of the same index does, so for a given runtime and seed the
/// run, and a recording of it, is reproducible.
[[nodiscard]] RunResult run_interleaved_mix(stm::Stm& stm,
                                            const MixParams& params);

// --- read-mostly scan (invisible vs visible reads, §6) -------------------------

struct ReadMostlyParams {
  std::uint32_t reader_threads = 3;
  std::uint32_t vars = 128;
  std::uint32_t scan_length = 32;
  std::uint64_t scans_per_thread = 500;
  std::uint64_t writer_txs = 100;  // executed by one extra writer thread
  std::uint64_t seed = 7;
};

/// Readers repeatedly scan a random window; one writer sprinkles updates.
/// The §6 comparison: invisible reads do zero shared writes on the read
/// path (steps.shared_writes), visible reads pay one RMW per read.
[[nodiscard]] RunResult run_read_mostly(stm::Stm& stm,
                                        const ReadMostlyParams& params);

// --- §3.4 counter increments -----------------------------------------------------

struct CounterParams {
  std::uint32_t threads = 4;
  std::uint64_t increments_per_thread = 1000;
  bool semantic = true;  // TCounter (commutative) vs register read-inc-write
};

struct CounterResult {
  RunResult run;
  std::int64_t final_value = 0;
};
[[nodiscard]] CounterResult run_counter(stm::Stm& stm, const CounterParams& params);

// --- write skew (the SI anomaly; §1's "trade safety for performance") --------------

struct WriteSkewParams {
  std::uint64_t rounds = 200;  // reset + overlapped-withdraw rounds
  std::uint64_t initial = 1;   // per-account balance at each reset
};

/// The classic two-account invariant game: the invariant is x + y >= 1;
/// two withdrawers each read BOTH accounts and, if the total permits,
/// zero ONE of them (withdrawer i zeroes account i). The schedule is
/// driven deterministically from one OS thread as two interleaved logical
/// processes (begin/begin, read/read, write/write, commit/commit), so the
/// overlap is total and reproducible. Serializable TMs preserve the
/// invariant in every round (one withdrawer aborts); snapshot isolation
/// commits both against the same snapshot and the total drops to 0 — the
/// write-skew anomaly, counted per round. Requires a non-blocking STM
/// (use "twopl-nowait" rather than "twopl"; "glock" cannot interleave).
struct WriteSkewResult {
  std::uint64_t rounds_played = 0;
  std::uint64_t skew_rounds = 0;  // rounds ending with x + y == 0
  std::uint64_t both_committed_rounds = 0;
};
[[nodiscard]] WriteSkewResult run_write_skew(stm::Stm& stm,
                                             const WriteSkewParams& params);

// --- the H4 long-reader probe (§5.2's multi-version optimization) -------------------

struct LongReaderProbe {
  /// Did every read of the long read-only transaction succeed?
  bool reads_succeeded = false;
  /// Did the long reader commit?
  bool reader_committed = false;
  /// Number of writer transactions that committed during the scan.
  std::uint64_t writer_commits = 0;
  /// True if the reader observed a single consistent snapshot (all values
  /// from the same writer generation).
  bool snapshot_consistent = false;
};

/// H4 in executable form, driven deterministically from one OS thread:
/// a read-only transaction scans all `vars` variables; between every two
/// reads a writer transaction overwrites ALL variables and commits. A
/// single-version TM must abort the reader (or the reader's commit); a
/// multi-version TM serves the begin-time snapshot and commits it — the
/// paper's "long read-only transactions commit despite concurrent
/// updates". The first read happens BEFORE the first writer commit, so
/// serving the old snapshot is legitimate (cf. ≺_H and lazy snapshots).
[[nodiscard]] LongReaderProbe long_reader_probe(stm::Stm& stm,
                                                std::uint32_t vars,
                                                std::uint64_t writer_rounds);

// --- the §6 adversarial schedule (Theorem 3) ----------------------------------------

struct LowerBoundProbe {
  /// Steps the reading process executed for the final read operation alone.
  std::uint64_t steps_final_read = 0;
  /// ... of which spent in read-set validation.
  std::uint64_t validation_steps_final_read = 0;
  /// Did the final read return a value (true) or abort the reader (false)?
  bool read_succeeded = false;
  /// Did the reader transaction ultimately commit?
  bool reader_committed = false;
};

/// The hard instance of Theorem 3's proof, driven deterministically from
/// one OS thread with two logical processes:
///   T1 reads variables 0..m-1; then T2 writes variable m (ONLY) and
///   commits; then T1 invokes a read of variable m.
/// With invisible reads, T1's process cannot know that T2 left the read
/// set untouched: it must examine all m entries to decide between aborting
/// and proceeding — and since nothing changed, a progressive single-version
/// TM must then let T1 commit, so the Ω(m) scan admits no early exit.
/// The system has k >= m+1 variables.
[[nodiscard]] LowerBoundProbe lower_bound_probe(stm::Stm& stm, std::size_t m);

}  // namespace optm::wl
