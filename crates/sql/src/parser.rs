//! Recursive-descent parser.

use crate::ast::{
    AggregateFunc, OrderByItem, SelectExpr, SelectItem, SelectStatement, Statement, TableRef,
};
use crate::error::ParseError;
use crate::lexer::{Lexer, Token, TokenKind};
use reopt_expr::{BinaryOp, ColumnRef, Expr};
use reopt_storage::Value;

/// Keywords that terminate an expression / cannot be used as an implicit alias.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "limit", "and", "or", "not", "as", "on", "by",
    "in", "like", "between", "is", "null", "asc", "desc", "create", "table", "temp", "temporary",
    "explain", "analyze", "having", "union", "join", "inner", "left", "right", "distinct",
];

/// Parse a single SQL statement.
pub fn parse_sql(sql: &str) -> Result<Statement, ParseError> {
    let mut statements = parse_statements(sql)?;
    match statements.len() {
        1 => Ok(statements.remove(0)),
        0 => Err(ParseError::new("empty SQL input", 0)),
        n => Err(ParseError::new(
            format!("expected a single statement, found {n}"),
            0,
        )),
    }
}

/// Parse a semicolon-separated script into a list of statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let tokens = Lexer::new(sql).tokenize()?;
    let mut parser = Parser::new(tokens);
    let mut statements = Vec::new();
    loop {
        // Skip stray semicolons.
        while parser.consume_if(|k| *k == TokenKind::Semicolon) {}
        if parser.at_eof() {
            break;
        }
        statements.push(parser.parse_statement()?);
    }
    Ok(statements)
}

/// The parser state: a token stream and a cursor.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Create a parser over a token stream (must end with [`TokenKind::Eof`]).
    pub fn new(tokens: Vec<Token>) -> Self {
        Self { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn advance(&mut self) -> Token {
        let token = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        token
    }

    fn consume_if(&mut self, pred: impl Fn(&TokenKind) -> bool) -> bool {
        if pred(&self.peek().kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}, found {}", self.peek().kind)))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.peek().offset)
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.advance();
                Ok(name)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// Parse one statement (SELECT, CREATE TABLE AS, or EXPLAIN).
    pub fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.consume_keyword("explain") {
            let analyze = self.consume_keyword("analyze");
            let statement = Box::new(self.parse_statement()?);
            return Ok(Statement::Explain { analyze, statement });
        }
        if self.consume_keyword("create") {
            let temporary = self.consume_keyword("temp") || self.consume_keyword("temporary");
            self.expect_keyword("table")?;
            let name = self.expect_ident()?.to_ascii_lowercase();
            self.expect_keyword("as")?;
            let query = self.parse_select()?;
            self.consume_if(|k| *k == TokenKind::Semicolon);
            return Ok(Statement::CreateTableAs {
                name,
                temporary,
                query,
            });
        }
        let select = self.parse_select()?;
        self.consume_if(|k| *k == TokenKind::Semicolon);
        Ok(Statement::Select(select))
    }

    /// Parse a SELECT statement.
    pub fn parse_select(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_keyword("select")?;
        let mut items = vec![self.parse_select_item()?];
        while self.consume_if(|k| *k == TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }

        self.expect_keyword("from")?;
        let mut from = vec![self.parse_table_ref()?];
        while self.consume_if(|k| *k == TokenKind::Comma) {
            from.push(self.parse_table_ref()?);
        }

        let where_clause = if self.consume_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.consume_keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.parse_expr()?);
            while self.consume_if(|k| *k == TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }

        let mut order_by = Vec::new();
        if self.consume_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.consume_keyword("desc") {
                    false
                } else {
                    self.consume_keyword("asc");
                    true
                };
                order_by.push(OrderByItem { expr, ascending });
                if !self.consume_if(|k| *k == TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.consume_keyword("limit") {
            match self.advance().kind {
                TokenKind::IntLit(n) if n >= 0 => Some(n as usize),
                other => return Err(self.error(format!("expected LIMIT count, found {other}"))),
            }
        } else {
            None
        };

        Ok(SelectStatement {
            items,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.peek().kind == TokenKind::Star {
            self.advance();
            return Ok(SelectItem {
                expr: SelectExpr::Wildcard,
                alias: None,
            });
        }
        // Aggregate call?
        let expr = if let TokenKind::Ident(name) = &self.peek().kind {
            if let Some(func) = AggregateFunc::from_name(name) {
                // Only treat as aggregate when followed by '('.
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) {
                    self.advance();
                    self.advance();
                    let arg = if self.peek().kind == TokenKind::Star {
                        self.advance();
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect(TokenKind::RParen)?;
                    SelectExpr::Aggregate { func, arg }
                } else {
                    SelectExpr::Scalar(self.parse_expr()?)
                }
            } else {
                SelectExpr::Scalar(self.parse_expr()?)
            }
        } else {
            SelectExpr::Scalar(self.parse_expr()?)
        };

        let alias = self.parse_optional_alias();
        Ok(SelectItem { expr, alias })
    }

    fn parse_optional_alias(&mut self) -> Option<String> {
        if self.consume_keyword("as") {
            if let TokenKind::Ident(name) = &self.peek().kind {
                let name = name.to_ascii_lowercase();
                self.advance();
                return Some(name);
            }
        } else if let TokenKind::Ident(name) = &self.peek().kind {
            if !RESERVED.contains(&name.to_ascii_lowercase().as_str()) {
                let name = name.to_ascii_lowercase();
                self.advance();
                return Some(name);
            }
        }
        None
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.expect_ident()?.to_ascii_lowercase();
        let alias = self.parse_optional_alias();
        Ok(match alias {
            Some(alias) => TableRef::aliased(table, alias),
            None => TableRef::new(table),
        })
    }

    /// Parse an expression (entry point: OR precedence level).
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_and()?;
        while self.consume_keyword("or") {
            let right = self.parse_and()?;
            expr = Expr::or(expr, right);
        }
        Ok(expr)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_not()?;
        while self.consume_keyword("and") {
            let right = self.parse_not()?;
            expr = Expr::and(expr, right);
        }
        Ok(expr)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.consume_keyword("not") {
            let inner = self.parse_not()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.consume_keyword("is") {
            let negated = self.consume_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] LIKE / IN / BETWEEN
        let negated = self.peek().is_keyword("not");
        if negated {
            let next = self.tokens.get(self.pos + 1);
            let follows = next
                .map(|t| t.is_keyword("like") || t.is_keyword("in") || t.is_keyword("between"))
                .unwrap_or(false);
            if follows {
                self.advance();
            } else {
                return Ok(left);
            }
        }

        if self.consume_keyword("like") {
            let pattern = match self.advance().kind {
                TokenKind::StringLit(s) => s,
                other => {
                    return Err(self.error(format!("expected LIKE pattern string, found {other}")))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }

        if self.consume_keyword("in") {
            self.expect(TokenKind::LParen)?;
            let mut list = Vec::new();
            loop {
                match self.parse_additive()? {
                    Expr::Literal(v) => list.push(v),
                    other => {
                        return Err(
                            self.error(format!("IN list must contain literals, found {other}"))
                        )
                    }
                }
                if !self.consume_if(|k| *k == TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        if self.consume_keyword("between") {
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }

        let op = match self.peek().kind {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(op, left, right));
        }

        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_multiplicative()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            expr = Expr::binary(op, expr, right);
        }
        Ok(expr)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_primary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.parse_primary()?;
            expr = Expr::binary(op, expr, right);
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let token = self.peek().clone();
        match token.kind {
            TokenKind::IntLit(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::FloatLit(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(v)))
            }
            TokenKind::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Value::from(s)))
            }
            TokenKind::Minus => {
                self.advance();
                let inner = self.parse_primary()?;
                match inner {
                    Expr::Literal(Value::Int(v)) => Ok(Expr::Literal(Value::Int(-v))),
                    Expr::Literal(Value::Float(v)) => Ok(Expr::Literal(Value::Float(-v))),
                    other => Ok(Expr::binary(BinaryOp::Sub, Expr::lit(0), other)),
                }
            }
            TokenKind::LParen => {
                self.advance();
                let expr = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(expr)
            }
            TokenKind::Ident(name) => {
                self.advance();
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => return Ok(Expr::Literal(Value::Null)),
                    "true" => return Ok(Expr::Literal(Value::Bool(true))),
                    "false" => return Ok(Expr::Literal(Value::Bool(false))),
                    _ => {}
                }
                if self.consume_if(|k| *k == TokenKind::Dot) {
                    let column = self.expect_ident()?;
                    Ok(Expr::Column(ColumnRef::qualified(lower, column)))
                } else {
                    Ok(Expr::Column(ColumnRef::bare(lower)))
                }
            }
            other => Err(self.error(format!("unexpected token {other} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let stmt = parse_sql("SELECT * FROM title AS t WHERE t.production_year > 2000;").unwrap();
        let q = stmt.query().unwrap();
        assert_eq!(q.from, vec![TableRef::aliased("title", "t")]);
        assert!(q.where_clause.is_some());
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.items[0].expr, SelectExpr::Wildcard);
    }

    #[test]
    fn parses_job_style_query() {
        let sql = "
            SELECT min(k.keyword) AS movie_keyword,
                   min(n.name) AS actor_name,
                   min(t.title) AS hero_movie
            FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, title AS t
            WHERE k.keyword IN ('superhero', 'sequel', 'second-part')
              AND n.name LIKE '%Downey%Robert%'
              AND t.production_year > 2000
              AND k.id = mk.keyword_id
              AND mk.movie_id = t.id
              AND t.id = ci.movie_id
              AND ci.person_id = n.id;
        ";
        let stmt = parse_sql(sql).unwrap();
        let q = stmt.query().unwrap();
        assert_eq!(q.from.len(), 5);
        assert!(q.has_aggregates());
        let conjuncts = reopt_expr::split_conjunction(q.where_clause.as_ref().unwrap());
        assert_eq!(conjuncts.len(), 7);
        assert_eq!(q.items[0].alias.as_deref(), Some("movie_keyword"));
    }

    #[test]
    fn parses_self_joins_with_aliases() {
        let sql = "SELECT min(mi.info) FROM info_type AS it1, info_type AS it2, movie_info AS mi
                   WHERE it1.info = 'budget' AND it2.info = 'votes' AND mi.info_type_id = it1.id";
        let q = parse_sql(sql).unwrap();
        let q = q.query().unwrap();
        assert_eq!(q.aliases(), vec!["it1", "it2", "mi"]);
    }

    #[test]
    fn parses_create_temp_table_as() {
        let sql = "CREATE TEMP TABLE temp1 AS
                   SELECT mk.movie_id FROM keyword AS k, movie_keyword AS mk
                   WHERE mk.keyword_id = k.id AND k.keyword = 'character-name-in-title';";
        match parse_sql(sql).unwrap() {
            Statement::CreateTableAs {
                name,
                temporary,
                query,
            } => {
                assert_eq!(name, "temp1");
                assert!(temporary);
                assert_eq!(query.from.len(), 2);
            }
            other => panic!("expected CREATE TABLE AS, got {other:?}"),
        }
    }

    #[test]
    fn parses_explain_analyze() {
        match parse_sql("EXPLAIN ANALYZE SELECT * FROM title").unwrap() {
            Statement::Explain { analyze, statement } => {
                assert!(analyze);
                assert!(matches!(*statement, Statement::Select(_)));
            }
            other => panic!("expected EXPLAIN, got {other:?}"),
        }
        match parse_sql("EXPLAIN SELECT * FROM title").unwrap() {
            Statement::Explain { analyze, .. } => assert!(!analyze),
            other => panic!("expected EXPLAIN, got {other:?}"),
        }
    }

    #[test]
    fn parses_multiple_statements() {
        let sql = "CREATE TEMP TABLE t1 AS SELECT * FROM a; SELECT * FROM t1, b WHERE t1.x = b.x;";
        let stmts = parse_statements(sql).unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn parses_group_order_limit() {
        let sql = "SELECT t.kind_id, count(*) AS c FROM title AS t
                   GROUP BY t.kind_id ORDER BY c DESC, t.kind_id LIMIT 5";
        let q = parse_sql(sql).unwrap();
        let q = q.query().unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].ascending);
        assert!(q.order_by[1].ascending);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parses_not_like_not_in_between() {
        let sql = "SELECT * FROM name AS n WHERE n.name NOT LIKE '%X%'
                   AND n.id NOT IN (1, 2, 3) AND n.age BETWEEN 20 AND 30 AND n.x IS NOT NULL";
        let q = parse_sql(sql).unwrap();
        let conjuncts =
            reopt_expr::split_conjunction(q.query().unwrap().where_clause.as_ref().unwrap());
        assert_eq!(conjuncts.len(), 4);
        assert!(matches!(conjuncts[0], Expr::Like { negated: true, .. }));
        assert!(matches!(conjuncts[1], Expr::InList { negated: true, .. }));
        assert!(matches!(conjuncts[2], Expr::Between { negated: false, .. }));
        assert!(matches!(conjuncts[3], Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parses_operator_precedence() {
        let q = parse_sql("SELECT * FROM t WHERE t.a = 1 OR t.b = 2 AND t.c = 3").unwrap();
        // Must parse as a = 1 OR (b = 2 AND c = 3).
        match q.query().unwrap().where_clause.as_ref().unwrap() {
            Expr::Binary {
                op: BinaryOp::Or, ..
            } => {}
            other => panic!("expected OR at the top, got {other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_and_negative_literals() {
        let q = parse_sql("SELECT * FROM t WHERE t.a + 2 * 3 > -4").unwrap();
        let w = q.query().unwrap().where_clause.clone().unwrap();
        assert_eq!(w.to_sql(), "t.a + 2 * 3 > -4");
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_sql("SELECT FROM").is_err());
        assert!(parse_sql("SELECT * WHERE x = 1").is_err());
        assert!(parse_sql("SELECT * FROM t WHERE x IN (SELECT 1)").is_err());
        assert!(parse_sql("").is_err());
        assert!(parse_sql("SELECT * FROM t; SELECT * FROM u").is_err());
        assert!(parse_statements("SELECT * FROM t LIMIT 'x'").is_err());
    }

    #[test]
    fn count_star_and_plain_count() {
        let q = parse_sql("SELECT count(*), count(t.id) FROM t").unwrap();
        let q = q.query().unwrap();
        assert!(matches!(
            q.items[0].expr,
            SelectExpr::Aggregate {
                func: AggregateFunc::Count,
                arg: None
            }
        ));
        assert!(matches!(
            q.items[1].expr,
            SelectExpr::Aggregate {
                func: AggregateFunc::Count,
                arg: Some(_)
            }
        ));
    }

    #[test]
    fn aggregate_name_used_as_column_is_not_aggregate() {
        // "min" not followed by '(' is an ordinary identifier.
        let q = parse_sql("SELECT min FROM t").unwrap();
        assert!(matches!(
            q.query().unwrap().items[0].expr,
            SelectExpr::Scalar(_)
        ));
    }

    #[test]
    fn to_sql_reparses_to_same_ast() {
        let sql = "SELECT min(t.title) AS movie_title
                   FROM title AS t, movie_keyword AS mk
                   WHERE t.id = mk.movie_id AND t.production_year BETWEEN 1990 AND 2005";
        let stmt = parse_sql(sql).unwrap();
        let rendered = stmt.to_sql();
        let reparsed = parse_sql(&rendered).unwrap();
        assert_eq!(stmt, reparsed);
    }

    #[test]
    fn parses_job_6a_shape() {
        // JOB query 6a verbatim from the benchmark (the marvel/Downey query the
        // paper's deep dives revisit); only the schema subset differs.
        let sql = "
            SELECT min(k.keyword) AS movie_keyword,
                   min(n.name) AS actor_name,
                   min(t.title) AS marvel_movie
            FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, title AS t
            WHERE k.keyword = 'marvel-cinematic-universe'
              AND n.name LIKE '%Downey%Robert%'
              AND t.production_year > 2010
              AND k.id = mk.keyword_id
              AND t.id = mk.movie_id
              AND t.id = ci.movie_id
              AND ci.person_id = n.id
              AND ci.movie_id = mk.movie_id;
        ";
        let stmt = parse_sql(sql).unwrap();
        let q = stmt.query().unwrap();
        assert_eq!(q.aliases(), vec!["ci", "k", "mk", "n", "t"]);
        assert_eq!(q.items.len(), 3);
        assert!(q.has_aggregates());
        let conjuncts = reopt_expr::split_conjunction(q.where_clause.as_ref().unwrap());
        // 3 filters + 5 join conditions.
        assert_eq!(conjuncts.len(), 8);
    }

    #[test]
    fn malformed_sql_reports_errors_not_panics() {
        for bad in [
            "SELECT min(t.title FROM title AS t",       // unbalanced paren
            "SELECT t.id FROM title AS t WHERE",        // dangling WHERE
            "SELECT t.id, FROM title AS t",             // trailing comma
            "SELECT t.id FROM title AS t WHERE t.id BETWEEN 1", // half a BETWEEN
            "SELECT t.id FROM title AS t GROUP BY",     // dangling GROUP BY
            "FROM title AS t SELECT t.id",              // clauses out of order
        ] {
            let err = parse_sql(bad);
            assert!(err.is_err(), "expected a parse error for {bad:?}");
        }
    }
}
