/**
 * @file
 * Unit tests for InlineFunction.  A capture that does not fit its buffer
 * is a compile error; tests/compile_fail/ checks those static_asserts.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "vm/walk.hh"

using namespace sw;

namespace {

using Fn48 = InlineFunction<int(), 48>;

/** Counts live instances so destruction/move balance can be asserted. */
struct Tracked
{
    static int live;
    static int destroyed;

    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked()
    {
        --live;
        ++destroyed;
    }

    static void
    resetCounters()
    {
        live = 0;
        destroyed = 0;
    }
};

int Tracked::live = 0;
int Tracked::destroyed = 0;

} // namespace

TEST(InlineFunction, DefaultConstructedIsEmpty)
{
    Fn48 fn;
    EXPECT_FALSE(fn);
    Fn48 null_fn(nullptr);
    EXPECT_FALSE(null_fn);
}

TEST(InlineFunction, SmallCaptureStaysInline)
{
    int x = 41;
    Fn48 fn = [x]() { return x + 1; };
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, CaptureAtExactCapacityStaysInline)
{
    std::array<std::uint8_t, 48> blob{};
    blob[0] = 7;
    auto lam = [blob]() { return int(blob[0]); };
    static_assert(sizeof(lam) == 48);
    Fn48 fn = lam;
    EXPECT_EQ(fn(), 7);
}

TEST(InlineFunction, EventFnCapacityMatchesHotPathCaptures)
{
    // The event queue's inline budget must keep covering the largest
    // hot-path capture: the PWB enqueue's [this, WalkRequest].  If the
    // budget shrinks below it, this stops compiling.
    void *self = nullptr;
    WalkRequest req;
    req.id = 3;
    auto enqueue = [self, req]() { return self ? 0u : unsigned(req.id); };
    static_assert(sizeof(enqueue) == kEventInlineBytes);
    InlineFunction<unsigned(), kEventInlineBytes> fn = enqueue;
    EXPECT_EQ(fn(), 3u);
}

TEST(InlineFunction, MoveOnlyCallable)
{
    auto ptr = std::make_unique<int>(99);
    Fn48 fn = [p = std::move(ptr)]() { return *p; };
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(), 99);

    Fn48 moved = std::move(fn);
    EXPECT_FALSE(fn);
    EXPECT_EQ(moved(), 99);
}

TEST(InlineFunction, MoveTransfersInlineCapture)
{
    Tracked::resetCounters();
    {
        Tracked t;
        Fn48 a = [t]() { return Tracked::live; };
        Fn48 b = std::move(a);
        EXPECT_FALSE(a);
        ASSERT_TRUE(b);
        b();
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, DestructionBalancesEveryCapture)
{
    Tracked::resetCounters();
    {
        Tracked t;
        Fn48 small = [t]() { return 0; };
        std::array<std::uint8_t, 40> pad{};
        Fn48 full = [t, pad]() { return int(pad[0]); };
        Fn48 moved = std::move(full);
        EXPECT_EQ(moved(), 0);
    }
    EXPECT_EQ(Tracked::live, 0) << "a capture leaked";
}

TEST(InlineFunction, MoveAssignmentDestroysPreviousTarget)
{
    Tracked::resetCounters();
    {
        Tracked t;
        Fn48 a = [t]() { return 1; };
        Fn48 b = [t]() { return 2; };
        int destroyed_before = Tracked::destroyed;
        b = std::move(a);
        EXPECT_GT(Tracked::destroyed, destroyed_before)
            << "move-assign must destroy the old capture";
        EXPECT_EQ(b(), 1);
        EXPECT_FALSE(a);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, SelfMoveAssignIsHarmless)
{
    int x = 5;
    Fn48 fn = [x]() { return x; };
    Fn48 &alias = fn;
    fn = std::move(alias);
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(), 5);
}

TEST(InlineFunction, ArgumentsAndReturnForwarding)
{
    InlineFunction<int(int, int), 48> add = [](int a, int b) {
        return a + b;
    };
    EXPECT_EQ(add(20, 22), 42);

    InlineFunction<std::unique_ptr<int>(int), 48> box = [](int v) {
        return std::make_unique<int>(v);
    };
    EXPECT_EQ(*box(7), 7);
}

TEST(InlineFunctionDeath, InvokingEmptyPanics)
{
    Fn48 fn;
    EXPECT_DEATH(fn(), "empty InlineFunction invoked");
}
