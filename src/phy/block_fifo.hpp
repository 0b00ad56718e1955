/**
 * @file
 * FIFO of 66-bit blocks for frame backlogs.
 *
 * Frame backlogs (fabric uplinks, switch egress ports) queue whole L2
 * frames behind the PHY mux's 4-block staging buffer and drain one
 * block at a time into it. They are contiguous rings: push and pop are
 * index arithmetic, and capacity follows the high-water mark like
 * hardware buffer RAM, so steady-state traffic is allocation-free. A
 * port that never carries a frame allocates nothing.
 */

#ifndef EDM_PHY_BLOCK_FIFO_HPP
#define EDM_PHY_BLOCK_FIFO_HPP

#include "common/ring.hpp"
#include "phy/block.hpp"

namespace edm {
namespace phy {

/** Allocation-free (steady-state) FIFO of PhyBlocks. */
using BlockFifo = common::Ring<PhyBlock>;

} // namespace phy
} // namespace edm

#endif // EDM_PHY_BLOCK_FIFO_HPP
