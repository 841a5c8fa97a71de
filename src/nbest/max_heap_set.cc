#include "nbest/max_heap_set.hh"

namespace darkside {

MaxHeapSet::MaxHeapSet(std::size_t ways)
    : ways_(static_cast<std::uint8_t>(ways))
{
    ds_assert(ways >= 1 && ways <= kMaxWays);
}

bool
MaxHeapSet::heapValid() const
{
    for (std::size_t pos = 0; pos < size_; ++pos) {
        const std::size_t left = 2 * pos + 1;
        const std::size_t right = 2 * pos + 2;
        if (left < size_ && costAtHeap(pos) < costAtHeap(left))
            return false;
        if (right < size_ && costAtHeap(pos) < costAtHeap(right))
            return false;
    }
    return true;
}

} // namespace darkside
