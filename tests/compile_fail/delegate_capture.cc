/**
 * @file
 * Compile-fail cases for the capture contract of the two delegate types:
 * EventFn (InlineFunction) and Callback reject a capture they cannot
 * store inline at compile time, never at run time.
 *
 * ctest compiles this file with -fsyntax-only once per case, selecting
 * the case with one -D flag, and passes only when the compiler prints
 * the matching static_assert message (tests/CMakeLists.txt).  With no
 * case selected the file must compile cleanly, which shows that the
 * include paths and flags of the harness itself are right.
 */

#include <array>
#include <cstdint>
#include <memory>

#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace {

/** A type whose move constructor may throw. */
struct ThrowingMove
{
    ThrowingMove() = default;
    ThrowingMove(const ThrowingMove &) = default;
    ThrowingMove(ThrowingMove &&) noexcept(false) {}
};

[[maybe_unused]] void
cases()
{
#if defined(SW_CASE_EVENTFN_OVER_80_BYTES)
    std::array<std::uint8_t, sw::kEventInlineBytes + 1> blob{};
    sw::EventFn fn = [blob]() { (void)blob; };
#elif defined(SW_CASE_EVENTFN_THROWING_MOVE)
    ThrowingMove state;
    sw::EventFn fn = [state]() { (void)state; };
#elif defined(SW_CASE_CALLBACK_OVER_16_BYTES)
    std::array<std::uint8_t, 17> blob{};
    sw::Callback<void()> fn = [blob]() { (void)blob; };
#elif defined(SW_CASE_CALLBACK_NOT_TRIVIALLY_COPYABLE)
    auto owned = std::make_shared<int>(1);
    sw::Callback<void()> fn = [owned]() { (void)owned; };
#else
    // Control: the largest captures both types accept.
    std::array<std::uint8_t, sw::kEventInlineBytes> event_blob{};
    sw::EventFn event = [event_blob]() { (void)event_blob; };
    std::array<std::uint8_t, 16> done_blob{};
    sw::Callback<void()> done = [done_blob]() { (void)done_blob; };
#endif
}

} // namespace
