#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/matrix.hh"

using netchar::stats::Matrix;

TEST(MatrixTest, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, SizedConstructionZeroInitializes)
{
    Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(m(r, c), 0.0);
}

TEST(MatrixTest, InitializerListLayout)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(0, 1), 2.0);
    EXPECT_EQ(m(2, 0), 5.0);
}

TEST(MatrixTest, RaggedInitializerThrows)
{
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, FromRowsMatchesInitializer)
{
    auto m = Matrix::fromRows({{1.0, 2.0}, {3.0, 4.0}});
    EXPECT_TRUE(m.approxEquals(Matrix{{1.0, 2.0}, {3.0, 4.0}}));
}

TEST(MatrixTest, FromRowsRaggedThrows)
{
    EXPECT_THROW(Matrix::fromRows({{1.0}, {1.0, 2.0}}),
                 std::invalid_argument);
}

TEST(MatrixTest, AtBoundsChecked)
{
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(m.at(0, 2), std::out_of_range);
    m.at(1, 1) = 7.0;
    EXPECT_EQ(m.at(1, 1), 7.0);
}

TEST(MatrixTest, RowAndColExtraction)
{
    Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    EXPECT_EQ(m.row(1), (std::vector<double>{4.0, 5.0, 6.0}));
    EXPECT_EQ(m.col(2), (std::vector<double>{3.0, 6.0}));
    EXPECT_THROW(m.row(2), std::out_of_range);
    EXPECT_THROW(m.col(3), std::out_of_range);
}

TEST(MatrixTest, IdentityMultiplicationIsNeutral)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    auto i = Matrix::identity(2);
    EXPECT_TRUE(m.multiply(i).approxEquals(m));
    EXPECT_TRUE(i.multiply(m).approxEquals(m));
}

TEST(MatrixTest, MultiplyKnownProduct)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix expect{{19.0, 22.0}, {43.0, 50.0}};
    EXPECT_TRUE(a.multiply(b).approxEquals(expect));
}

TEST(MatrixTest, MultiplyShapeMismatchThrows)
{
    Matrix a(2, 3);
    Matrix b(2, 3);
    EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

TEST(MatrixTest, ApproxEqualsRespectsTolerance)
{
    Matrix a{{1.0}};
    Matrix b{{1.0 + 1e-12}};
    Matrix c{{1.1}};
    EXPECT_TRUE(a.approxEquals(b));
    EXPECT_FALSE(a.approxEquals(c));
    EXPECT_FALSE(a.approxEquals(Matrix(1, 2)));
}
