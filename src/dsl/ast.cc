#include "src/dsl/ast.h"

namespace osguard {

std::string_view UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNeg:
      return "-";
    case UnaryOp::kNot:
      return "!";
  }
  return "?";
}

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kEq:
      return "==";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kAnd:
      return "&&";
    case BinaryOp::kOr:
      return "||";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kIdent:
      return name;
    case ExprKind::kUnary: {
      std::string out(UnaryOpName(unary_op));
      out += children[0]->ToString();
      return out;
    }
    case ExprKind::kBinary: {
      std::string out = "(";
      out += children[0]->ToString();
      out += ' ';
      out += BinaryOpName(binary_op);
      out += ' ';
      out += children[1]->ToString();
      out += ')';
      return out;
    }
    case ExprKind::kCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += children[i]->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kList: {
      std::string out = "{";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += children[i]->ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

ExprPtr MakeLiteral(Value value, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(value);
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr MakeIdent(std::string name, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIdent;
  e->name = std::move(name);
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCall;
  e->name = std::move(name);
  e->children = std::move(args);
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr MakeList(std::vector<ExprPtr> elements, int line, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kList;
  e->children = std::move(elements);
  e->line = line;
  e->column = column;
  return e;
}

}  // namespace osguard
