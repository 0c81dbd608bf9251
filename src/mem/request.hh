/**
 * @file
 * Memory access descriptor passed through the data-memory hierarchy.
 */

#ifndef SW_MEM_REQUEST_HH
#define SW_MEM_REQUEST_HH

#include "sim/callback.hh"
#include "sim/types.hh"

namespace sw {

/** Completion callback: invoked at the cycle the access is finished. */
using MemDoneFn = Callback<void()>;

/**
 * One sector-granularity access to the data-memory hierarchy.
 *
 * Page-table reads set @c pte: they bypass the L1D and are cached in the L2
 * only (the paper follows MASK/Mosaic in caching PTEs at L2; footnote 2).
 */
struct MemAccess
{
    PhysAddr addr = 0;
    bool write = false;
    bool pte = false;
    SmId sm = kInvalidSm;   ///< issuing SM, selects the L1D (ignored for PTE)
    MemDoneFn onDone;
};

} // namespace sw

#endif // SW_MEM_REQUEST_HH
