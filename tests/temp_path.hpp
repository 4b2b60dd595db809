/**
 * @file
 * Per-test scratch file paths. Every path is unique to the running
 * test and process, so tests run side by side (ctest -j, two builds
 * on one host) never read or delete each other's files.
 */

#ifndef PHASTLANE_TESTS_TEMP_PATH_HPP
#define PHASTLANE_TESTS_TEMP_PATH_HPP

#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

namespace phastlane::test {

/** <TempDir>pl_<Suite>.<Test>_<pid>_<stem>. */
inline std::string
tempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) +
                                  "." + info->name()
                            : "no_test";
    // Parameterized test names carry '/'.
    for (char &c : name) {
        if (c == '/')
            c = '_';
    }
    return ::testing::TempDir() + "pl_" + name + "_" +
           std::to_string(::getpid()) + "_" + stem;
}

} // namespace phastlane::test

#endif // PHASTLANE_TESTS_TEMP_PATH_HPP
