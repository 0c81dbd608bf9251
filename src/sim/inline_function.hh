/**
 * @file
 * InlineFunction: a move-only callable wrapper with a fixed inline capture
 * buffer, built for the event-queue hot path.
 *
 * std::function heap-allocates any capture larger than its tiny SBO
 * (16 bytes on libstdc++), which puts a malloc/free pair on the critical
 * path of every scheduled event.  InlineFunction stores the capture
 * directly inside the object — the event slab then holds the whole
 * closure by value and scheduling allocates nothing.
 *
 * A capture that does not fit is a compile error (static_assert), never a
 * silent heap spill, as for Callback (sim/callback.hh).  Unlike Callback,
 * the capture may own move-only or non-trivial state, because an event
 * fires exactly once.
 *
 * Only what the event queue needs is implemented: construct from a
 * callable, move, invoke, destroy.  No copy (events fire once; captures
 * may hold move-only state), no allocator hooks, no target_type().
 */

#ifndef SW_SIM_INLINE_FUNCTION_HH
#define SW_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace sw {

template <typename Sig, std::size_t Capacity>
class InlineFunction; // undefined; only the R(Args...) partial below exists

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFunction(F &&f)
    {
        static_assert(sizeof(Fn) <= Capacity,
                      "InlineFunction capture exceeds its inline buffer: "
                      "keep the state in a record the owner recycles and "
                      "capture a pointer or slot index");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "InlineFunction capture is over-aligned");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "InlineFunction capture must be nothrow-movable: "
                      "mark the captured type's move constructor noexcept");
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
        invoke_ = &invokeAs<Fn>;
        manage_ = &manageAs<Fn>;
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        SW_ASSERT(invoke_ != nullptr, "empty InlineFunction invoked");
        return invoke_(buf, std::forward<Args>(args)...);
    }

  private:
    using InvokeFn = R (*)(void *, Args &&...);
    /** Move-constructs the capture into @p dest (if non-null), then
     *  destroys it in @p self. */
    using ManageFn = void (*)(void *self, void *dest);

    template <typename Fn>
    static R
    invokeAs(void *storage, Args &&...args)
    {
        return (*static_cast<Fn *>(storage))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageAs(void *self, void *dest)
    {
        Fn *obj = static_cast<Fn *>(self);
        if (dest)
            ::new (dest) Fn(std::move(*obj));
        obj->~Fn();
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (other.invoke_) {
            other.manage_(other.buf, buf);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (manage_) {
            manage_(buf, nullptr);
            invoke_ = nullptr;
            manage_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[Capacity];
    InvokeFn invoke_ = nullptr;
    ManageFn manage_ = nullptr;
};

} // namespace sw

#endif // SW_SIM_INLINE_FUNCTION_HH
