/**
 * @file
 * Text-table rendering and CSV output tests.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "common/table.hpp"
#include "temp_path.hpp"

namespace phastlane {
namespace {

TEST(TableTest, RendersHeaderRuleAndRows)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    std::istringstream in(out);
    std::string l1, l2, l3, l4;
    std::getline(in, l1);
    std::getline(in, l2);
    std::getline(in, l3);
    std::getline(in, l4);
    EXPECT_NE(l1.find("name"), std::string::npos);
    EXPECT_NE(l1.find("value"), std::string::npos);
    EXPECT_EQ(l2.find_first_not_of('-'), std::string::npos);
    EXPECT_NE(l3.find("alpha"), std::string::npos);
    EXPECT_NE(l4.find("22"), std::string::npos);
}

TEST(TableTest, ColumnsAligned)
{
    TextTable t({"a", "b"});
    t.addRow({"xxxxxx", "1"});
    t.addRow({"y", "2"});
    const std::string out = t.render();
    std::istringstream in(out);
    std::string header, rule, r1, r2;
    std::getline(in, header);
    std::getline(in, rule);
    std::getline(in, r1);
    std::getline(in, r2);
    // The second column starts at the same offset in both rows.
    EXPECT_EQ(r1.find('1'), r2.find('2'));
}

TEST(TableTest, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(static_cast<int64_t>(-42)), "-42");
}

TEST(TableTest, ShortRowsPadAndLongRowsWiden)
{
    TextTable t({"a"});
    t.addRow({"1", "2", "3"});
    t.addRow({});
    EXPECT_EQ(t.rowCount(), 2u);
    const std::string out = t.render();
    EXPECT_NE(out.find('3'), std::string::npos);
}

TEST(TableTest, CsvRoundTrip)
{
    TextTable t({"k", "v"});
    t.addRow({"plain", "1"});
    t.addRow({"with,comma", "2"});
    t.addRow({"with\"quote", "3"});
    const std::string path = test::tempPath("table_test.csv");
    t.writeCsv(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "k,v");
    std::getline(in, line);
    EXPECT_EQ(line, "plain,1");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with,comma\",2");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with\"\"quote\",3");
    std::remove(path.c_str());
}

} // namespace
} // namespace phastlane
