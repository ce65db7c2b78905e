// Dense row-major matrix/vector types used by the semi-Markov decision
// module (policy evaluation solves a linear system per iteration).
// Deliberately small: only what the decision-theoretic machinery of the
// paper's Section 3 / Appendix A needs.
#pragma once

#include <initializer_list>
#include <vector>

namespace tcw::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  Matrix transposed() const;

  friend Matrix operator+(const Matrix& a, const Matrix& b);
  friend Matrix operator-(const Matrix& a, const Matrix& b);
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  friend Matrix operator*(double s, const Matrix& a);
  friend Vector operator*(const Matrix& a, const Vector& x);

  friend bool operator==(const Matrix&, const Matrix&) = default;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm.
double norm2(const Vector& v);
/// Max |v_i|.
double norm_inf(const Vector& v);
/// Dot product.
double dot(const Vector& a, const Vector& b);
/// a - b elementwise.
Vector subtract(const Vector& a, const Vector& b);

}  // namespace tcw::linalg
