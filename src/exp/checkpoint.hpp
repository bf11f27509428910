#pragma once

/// @file checkpoint.hpp
/// Crash-safe checkpoint/resume for campaign runs.
///
/// An hour-long paper-scale campaign (Table IV: 20,160 simulations) that
/// dies at 90% used to lose everything. This layer persists each completed
/// kCampaignChunk-sized chunk to an append-only file so a killed run can be
/// resumed, and the resumed run's final Aggregate (and per-item outcomes,
/// when kept) are **bit-identical** to an uninterrupted run — including the Welford
/// floating-point moments — at any thread count.
///
/// ## File format (version 2)
///
/// Line-oriented ASCII. Every line is `<payload> crc=<hex16>` where the crc
/// is FNV-1a 64 of the payload (everything before " crc="). Line 1 is the
/// header:
///
///   scaa-checkpoint format=2 mode=<agg|results> fingerprint=<hex16>
///       items=<n> chunks=<n> chunk_size=<n>            (one line)
///
/// Every following line is one committed chunk, appended with a single
/// write(2) followed by fsync(2), in completion order (not chunk order):
///
///   mode=agg:     chunk=<idx> sims=... alerts=... hazards=... accidents=...
///                 noalert=... fcw=... inv=<rs> tth=<rs>
///   mode=results: chunk=<idx> n=<count> <item>;<item>;...
///
/// `<rs>` is a RunningStats snapshot `n:mean:m2:min:max` and `<item>` a
/// SimulationSummary, both with every double rendered as its raw IEEE-754
/// bit pattern in fixed 16-digit hex (util::double_bits) — decimal
/// formatting would round and break the bit-identical guarantee.
///
/// ## Fingerprint rules
///
/// The header fingerprint is FNV-1a over the format version, kCampaignChunk,
/// the item count, and every field of every CampaignItem (doubles as bit
/// patterns; an attached FaultPlan contributes its own digest, a forced
/// attack window its two bit patterns, each only when present). A
/// checkpoint therefore only ever resumes the *exact* grid it was started
/// for: a different strategy, seed, repetition count, grid order, chunk
/// size, fault plan, or file-format revision all change the fingerprint
/// and are rejected with CheckpointError. Bump kCheckpointFormatVersion on
/// any change to the record layout *or* to simulation semantics that makes
/// old partial results unsound to merge with new ones.
///
/// ## Crash tolerance vs. corruption
///
/// A crash can tear at most the final append, so on load a malformed or
/// checksum-failing *last* line is tolerated (that chunk is simply
/// recomputed). A bad line anywhere *before* the last, a header mismatch,
/// an out-of-range or duplicate chunk index, or a chunk whose sample count
/// disagrees with the grid is real corruption and raises CheckpointError —
/// silently merging doubtful state would be worse than rerunning.
///
/// Each open checkpoint holds an exclusive advisory flock(2) on its file
/// for its lifetime, so a retry loop that restarts the campaign while the
/// previous process is still running fails cleanly instead of interleaving
/// appends from two writers.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace scaa::exp {

/// Raised on checkpoint corruption, fingerprint/format mismatch, refusal to
/// clobber an existing file, or an I/O failure while committing.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bump on any serialized-layout or simulation-semantics change (see file
/// comment); folded into every fingerprint, so old files are rejected.
/// v2: SimulationSummary gained the per-kind fault counters and
/// CampaignItem an optional FaultPlan (both serialized).
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Fingerprint of a campaign grid: FNV-1a over the format version, chunk
/// size, item count, and every CampaignItem field (doubles as bit
/// patterns). Two grids fingerprint equal iff a checkpoint of one is valid
/// for the other. Optional fields (fault plan, forced attack window) are
/// hashed only when set, so adding one never changes the fingerprint of a
/// grid that does not use it.
std::uint64_t grid_fingerprint(const std::vector<CampaignItem>& items);

/// What a CampaignCheckpoint persists per chunk.
enum class CheckpointMode {
  kAggregate,  ///< mode=agg: the chunk's AggregateAccumulatorRecord
  kSummaries,  ///< mode=results: every SimulationSummary of the chunk
};

/// Checkpoint for one job of the campaign engine (run_campaigns_streaming).
/// In kAggregate mode it persists one AggregateAccumulatorRecord per
/// completed chunk. In kSummaries mode (jobs that keep per-item outcomes,
/// e.g. Table V's driver-on/off pairing) it persists the chunk's summaries
/// and rebuilds the chunk's accumulator on restore by folding them in item
/// order, exactly as the engine folded them. Opening a file written in the
/// other mode raises CheckpointError.
///
/// Construction with resume=false starts a fresh file and throws
/// CheckpointError if @p path already holds data (refusing to silently
/// clobber a previous run); resume=true loads and validates an existing
/// file, or starts fresh when none exists — so crash-restart loops can
/// always pass resume=true. commit() is thread-safe (the engine calls it
/// from worker threads).
class CampaignCheckpoint {
 public:
  CampaignCheckpoint(std::string path, const std::vector<CampaignItem>& items,
                     bool resume,
                     CheckpointMode mode = CheckpointMode::kAggregate);
  ~CampaignCheckpoint();

  CampaignCheckpoint(const CampaignCheckpoint&) = delete;
  CampaignCheckpoint& operator=(const CampaignCheckpoint&) = delete;

  /// True in kSummaries mode.
  bool keeps_summaries() const noexcept;

  /// Total chunks in the grid this checkpoint covers.
  std::size_t chunk_count() const noexcept;

  /// Chunks restored from the file at construction.
  std::size_t completed_chunks() const noexcept;

  /// Simulations covered by the restored chunks.
  std::size_t completed_items() const noexcept;

  /// True when @p chunk was restored from the file.
  bool chunk_complete(std::size_t chunk) const;

  /// The restored accumulator for a complete chunk (bit-exact).
  AggregateAccumulator restored(std::size_t chunk) const;

  /// The restored summaries of a complete chunk, in item order (bit-exact).
  /// Throws CheckpointError in kAggregate mode.
  std::span<const sim::SimulationSummary> restored_summaries(
      std::size_t chunk) const;

  /// Durably append @p chunk's record (single write + fsync): @p acc in
  /// kAggregate mode, @p summaries (the chunk's, in item order) in
  /// kSummaries mode. Thread-safe. Throws CheckpointError on I/O failure,
  /// if the chunk is already committed, or if @p summaries does not cover
  /// the chunk in kSummaries mode.
  void commit(std::size_t chunk, const AggregateAccumulator& acc,
              std::span<const sim::SimulationSummary> summaries = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Read-only loader for an agg-mode checkpoint file: the merge half of the
/// sharded campaign workflow. Validates the header against @p items exactly
/// like resume does (same fingerprint/shape/format rules — every slice of a
/// sharded campaign checkpoints the FULL grid's fingerprint, each file just
/// holding its own chunks), loads every committed chunk record, and
/// tolerates a torn final line WITHOUT repairing the file (merge never
/// writes; the owning worker repairs on its next resume). The file must
/// exist — a missing slice is an error here, never silently created.
///
/// Holds the same exclusive advisory flock(2) as the writer for its
/// lifetime, so merging a slice that a live worker is still appending to
/// fails cleanly instead of folding a half-written campaign.
class CampaignCheckpointReader {
 public:
  CampaignCheckpointReader(std::string path,
                           const std::vector<CampaignItem>& items);
  ~CampaignCheckpointReader();

  CampaignCheckpointReader(const CampaignCheckpointReader&) = delete;
  CampaignCheckpointReader& operator=(const CampaignCheckpointReader&) =
      delete;

  const std::string& path() const noexcept;
  std::size_t chunk_count() const noexcept;
  std::size_t completed_chunks() const noexcept;
  std::size_t completed_items() const noexcept;
  bool chunk_complete(std::size_t chunk) const;

  /// The committed record for a complete chunk (bit-exact). Throws
  /// CheckpointError when the chunk is not in this file.
  const AggregateAccumulatorRecord& record(std::size_t chunk) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scaa::exp
