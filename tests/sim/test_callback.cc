/** @file Unit tests for Callback, the memory/translation completion type. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/request.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

using namespace sw;

namespace {

/** A 16-byte payload: the largest capture a Callback holds. */
struct Pair
{
    std::uint64_t a;
    std::uint64_t b;
};

} // namespace

TEST(Callback, IsTwentyFourTriviallyCopyableBytes)
{
    static_assert(sizeof(Callback<void()>) == 24);
    static_assert(sizeof(Callback<int(int, const std::string &)>) == 24);
    static_assert(std::is_trivially_copyable_v<Callback<void()>>);
    static_assert(std::is_trivially_copyable_v<MemDoneFn>);
    static_assert(std::is_trivially_destructible_v<Callback<int(int)>>);
    SUCCEED();
}

TEST(Callback, EmptyUntilSet)
{
    Callback<void()> empty;
    EXPECT_FALSE(empty);
    Callback<void()> null_cb(nullptr);
    EXPECT_FALSE(null_cb);

    int hits = 0;
    Callback<void()> set = [&hits]() { ++hits; };
    EXPECT_TRUE(set);
    set();
    EXPECT_EQ(hits, 1);

    set = nullptr;
    EXPECT_FALSE(set);
}

TEST(Callback, ForwardsArgumentsAndReturnsResult)
{
    Callback<int(int, int)> sub = [](int x, int y) { return x - y; };
    EXPECT_EQ(sub(10, 3), 7);

    // Reference parameters bind to the caller's object, not a copy.
    Callback<void(std::vector<int> &)> append = [](std::vector<int> &v) {
        v.push_back(int(v.size()));
    };
    std::vector<int> v;
    append(v);
    append(v);
    EXPECT_EQ(v, (std::vector<int>{0, 1}));

    Callback<std::size_t(const std::string &)> len =
        [](const std::string &s) { return s.size(); };
    EXPECT_EQ(len("sector"), 6u);

    // A plain function pointer is a trivially copyable callable too.
    Callback<int(int)> neg = +[](int x) { return -x; };
    EXPECT_EQ(neg(5), -5);
}

TEST(Callback, CopiesFireIndependently)
{
    int a = 0;
    int b = 0;
    Callback<void(int)> to_a = [&a](int n) { a += n; };
    Callback<void(int)> copy = to_a;
    Callback<void(int)> to_b = [&b](int n) { b += n; };

    copy(2);
    to_a(3);
    EXPECT_EQ(a, 5);
    EXPECT_EQ(b, 0);

    // Reassigning a copy leaves the original target untouched.
    copy = to_b;
    copy(7);
    to_a(1);
    EXPECT_EQ(a, 6);
    EXPECT_EQ(b, 7);

    // Each copy owns its capture by value.
    std::vector<Callback<int()>> values;
    for (int i = 0; i < 4; ++i)
        values.push_back([i]() { return i * i; });
    std::vector<Callback<int()>> copies = values;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(copies[std::size_t(i)](), i * i);
}

TEST(Callback, HoldsACaptureOfExactlySixteenBytes)
{
    Pair p{0x1234, 0x5678};
    auto sum = [p]() { return p.a + p.b; };
    static_assert(sizeof(sum) == Callback<std::uint64_t()>::kInlineBytes);
    Callback<std::uint64_t()> cb = sum;
    EXPECT_EQ(cb(), 0x1234u + 0x5678u);

    // Pointer plus index: the `[this, slot]` shape of pooled records.
    std::uint64_t slots[3] = {0, 0, 0};
    std::uint64_t *out = slots;
    std::uint32_t slot = 2;
    auto mark = [out, slot]() { out[slot] = 99; };
    static_assert(sizeof(mark) == 16);
    Callback<void()> done = mark;
    done();
    EXPECT_EQ(slots[2], 99u);
}

TEST(Callback, MemDoneFnConvertsToStdFunction)
{
    // The shape of a walk backend's page-table hook that takes its
    // completion as std::function<void()>.
    int fired = 0;
    MemDoneFn done = [&fired]() { ++fired; };
    std::function<void()> as_function = done;
    as_function();
    EXPECT_EQ(fired, 1);

    Callback<void(PhysAddr, MemDoneFn)> pt_access =
        [](PhysAddr, std::function<void()> on_read) { on_read(); };
    pt_access(0x40, done);
    EXPECT_EQ(fired, 2);
}

TEST(Callback, MemDoneFnSchedulesAsInlineEvent)
{
    EventQueue eq;
    Cycle fired_at = 0;
    struct Probe
    {
        EventQueue *eq;
        Cycle *at;
    } probe{&eq, &fired_at};
    MemDoneFn done = [probe]() { *probe.at = probe.eq->now(); };
    EventFn event = done;
    eq.scheduleIn(12, std::move(event));
    eq.scheduleIn(30, done);
    eq.run(20);
    EXPECT_EQ(fired_at, 12u);
    eq.run();
    EXPECT_EQ(fired_at, 30u);
}
