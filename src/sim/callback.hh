/**
 * @file
 * Callback: a 24-byte, trivially copyable delegate for the completions and
 * hooks of the memory and translation path.
 *
 * Every step of a memory access or a page walk ends in a completion, and
 * those completions are copied into MSHR waiter lists, parked in retry
 * queues and captured by the events that deliver them.  std::function
 * heap-allocates any closure past its 16-byte buffer and nests badly (a
 * completion capturing a completion capturing a vector).  Callback takes
 * the opposite contract: the callable must be trivially copyable and at
 * most kInlineBytes, and it is stored inline — so a Callback is a
 * function pointer plus 16 bytes of capture, copying it is a memcpy, and
 * constructing, copying or dropping one never touches the allocator.  A
 * capture that does not fit is a compile error (static_assert), never a
 * silent heap spill: state that needs more room lives in a record the
 * owner keeps (a slot in a fixed pool) and the capture names it, as in
 * `[this, slot]`.
 *
 * InlineFunction (sim/inline_function.hh) is the event queue's handler
 * type and stays separate: event handlers fire once, may own move-only or
 * non-trivial state (a std::function a caller hands in, a whole
 * WalkRequest), and get an 80-byte buffer, again with no spill path.  A
 * Callback converts into an InlineFunction (it is a 24-byte trivially
 * copyable callable) and into a std::function, so completions schedule
 * directly and code holding std::function-taking lambdas keeps working.
 */

#ifndef SW_SIM_CALLBACK_HH
#define SW_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace sw {

template <typename Sig>
class Callback; // undefined; only the R(Args...) partial below exists

template <typename R, typename... Args>
class Callback<R(Args...)>
{
  public:
    /** Largest capture a Callback stores (two pointers' worth). */
    static constexpr std::size_t kInlineBytes = 16;

    Callback() noexcept = default;
    Callback(std::nullptr_t) noexcept {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, Callback> &&
                  std::is_invocable_r_v<R, const Fn &, Args...>>>
    Callback(F &&f) noexcept
    {
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "Callback capture exceeds 16 bytes: keep the state in "
                      "a record and capture a pointer or slot index");
        static_assert(alignof(Fn) <= kAlign,
                      "Callback capture is over-aligned");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "Callback capture must be trivially copyable: no "
                      "std::function, vector or other owning member");
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
        invoke_ = &invokeAs<Fn>;
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    R
    operator()(Args... args) const
    {
        SW_ASSERT(invoke_ != nullptr, "empty Callback invoked");
        return invoke_(buf, std::forward<Args>(args)...);
    }

  private:
    using InvokeFn = R (*)(const unsigned char *, Args...);

    /** Pointer alignment keeps the object at 24 bytes. */
    static constexpr std::size_t kAlign = alignof(void *);

    template <typename Fn>
    static R
    invokeAs(const unsigned char *storage, Args... args)
    {
        const Fn *fn = std::launder(reinterpret_cast<const Fn *>(storage));
        return (*fn)(std::forward<Args>(args)...);
    }

    alignas(kAlign) unsigned char buf[kInlineBytes] = {};
    InvokeFn invoke_ = nullptr;
};

} // namespace sw

#endif // SW_SIM_CALLBACK_HH
