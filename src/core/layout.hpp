#pragma once
// Process layout of the fault-tolerant application.
//
// Each sub-grid is solved by its own process group; groups are carved out
// of MPI_COMM_WORLD by contiguous rank ranges (grid 0 gets the first block
// of ranks, and world rank 0 — the paper's "controlling" process that must
// not fail — belongs to grid 0's group).
//
// The paper's load-balancing rule: the lower-diagonal grids have half the
// unknowns of the diagonal ones, and with a fixed timestep across grids
// they get a proportionally smaller process count (Fig. 9 uses 8 / 4 / 2 / 1
// processes per diagonal / lower-diagonal / upper-extra / lower-extra grid;
// the Table I sweep scales diagonal vs lower counts 4:1).

#include <vector>

#include "combination/index_set.hpp"
#include "recovery/buddy.hpp"

namespace ftr::core {

struct LayoutConfig {
  ftr::comb::Scheme scheme;
  ftr::comb::Technique technique = ftr::comb::Technique::CheckpointRestart;
  int procs_diagonal = 8;     ///< per diagonal grid (duplicates use the same)
  int procs_lower = 4;        ///< per lower-diagonal grid
  int procs_extra_upper = 2;  ///< per depth-2 extra-layer grid (AC)
  int procs_extra_lower = 1;  ///< per depth-3 extra-layer grid (AC)
  int extra_layers = 2;       ///< AC extra layers (paper uses 2)
};

struct Layout {
  LayoutConfig config;
  std::vector<ftr::comb::GridSlot> slots;  ///< grid id -> slot (Fig. 1 IDs)
  std::vector<int> procs_per_grid;         ///< grid id -> group size
  std::vector<int> first_rank;             ///< grid id -> first world rank
  int total_procs = 0;

  [[nodiscard]] int num_grids() const { return static_cast<int>(slots.size()); }
  [[nodiscard]] int grid_of_rank(int world_rank) const;
  [[nodiscard]] int group_rank(int world_rank) const {
    return world_rank - first_rank[static_cast<size_t>(grid_of_rank(world_rank))];
  }
  [[nodiscard]] int root_rank_of_grid(int grid_id) const {
    return first_rank[static_cast<size_t>(grid_id)];
  }
  /// Grid ids owning any of the given world ranks (sorted, unique).
  [[nodiscard]] std::vector<int> grids_of_ranks(const std::vector<int>& world_ranks) const;
  /// Host of an initial-placement world rank: the runtime allocates slots
  /// sequentially, so rank r sits on host r / slots_per_host, and the
  /// reconstructor respawns replacements on their original hosts, keeping
  /// the map valid across repairs.
  [[nodiscard]] int host_of_rank(int world_rank, int slots_per_host) const {
    return world_rank / (slots_per_host > 0 ? slots_per_host : 1);
  }
};

/// The placement facts the diskless buddy subsystem needs (recovery code
/// cannot depend on core, so core derives them from its Layout): per-grid
/// rank ranges, the RC partner map, and the host geometry.
[[nodiscard]] ftr::rec::BuddyTopology make_buddy_topology(const Layout& layout,
                                                          int slots_per_host);

/// Rank bookkeeping for shrink-mode (degraded) recovery: when replacement
/// processes cannot be placed, execution continues on the shrunken
/// communicator.  Survivors keep their *original* world rank for layout
/// purposes (grid membership, root identities) while collectives and
/// point-to-point traffic use the compacted ranks of the shrunken
/// communicator; this view translates between the two.  Shrinking preserves
/// rank order, so the new rank of a survivor is its index among the
/// surviving original ranks.
struct DegradedView {
  std::vector<int> survivors;   ///< original world ranks still alive, ascending
  std::vector<int> lost_grids;  ///< grids that lost >= 1 member (sorted, unique)

  /// Compacted (shrunken-communicator) rank of an original world rank, or
  /// -1 when that rank failed.
  [[nodiscard]] int new_rank_of(int original_rank) const;
  /// Original world rank of a compacted rank.
  [[nodiscard]] int original_rank_of(int new_rank) const {
    return survivors[static_cast<size_t>(new_rank)];
  }
  /// A grid is usable in degraded mode only when its whole group survived.
  [[nodiscard]] bool grid_lost(int grid_id) const;
};

/// Build the degraded view from the union of failed *original* ranks.
DegradedView build_degraded_view(const Layout& layout, const std::vector<int>& failed_ranks);

/// Build the layout for a technique; asserts every group fits its grid.
Layout build_layout(const LayoutConfig& cfg);

/// The core counts of the paper's Table I sweep (19/38/76/152/304 on a CR
/// arrangement with l = 4): diagonal grids get `scale` processes each and
/// lower-diagonal grids scale/4 (minimum 1).
LayoutConfig table1_layout(int n, int l, int diag_procs);

}  // namespace ftr::core
