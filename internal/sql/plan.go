package sql

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// Planner errors.
var (
	ErrNoSuchTable = errors.New("sql: no such table")
)

// Executor is what the SQL layer needs from a query backend: a schema to
// plan against and the query/explain entry points. *shard.Manager, the
// query path of every table, implements it; so does a bare
// *engine.Engine, the single-threaded reference tests and experiments
// run against.
type Executor interface {
	Table() *table.Table
	QueryContext(ctx context.Context, q engine.Query) (*engine.Result, error)
	Explain(q engine.Query) ([]string, error)
	ExplainAnalyzeContext(ctx context.Context, q engine.Query) ([]string, *engine.Result, error)
}

// workloadRecorder is an Executor that records per-template workload
// samples (the shard manager, when workload analytics is on).
type workloadRecorder interface {
	WorkloadStats() *stats.Table
}

// Plan binds a parsed statement against a table's schema and lowers it to
// an engine query: SELECT * expands to the full column list, and integer
// literals compared against DOUBLE columns are coerced to floats.
func Plan(stmt Statement, tbl *table.Table) (engine.Query, error) {
	if stmt.Table != tbl.Name() {
		return engine.Query{}, fmt.Errorf("%w: %q (planning against %q)", ErrNoSuchTable, stmt.Table, tbl.Name())
	}
	q := engine.Query{Aggs: stmt.Aggs, GroupBy: stmt.GroupBy, OrderBy: stmt.OrderBy, OrderDesc: stmt.OrderDesc, Limit: stmt.Limit}
	switch {
	case stmt.Star:
		if stmt.GroupBy != "" {
			return engine.Query{}, fmt.Errorf("%w: SELECT * with GROUP BY", ErrSyntax)
		}
		for _, cs := range tbl.Schema() {
			q.Select = append(q.Select, cs.Name)
		}
	default:
		q.Select = stmt.Cols
	}
	// Bind predicates: validate columns exist and coerce literal types.
	for _, p := range stmt.Where.Preds {
		col, err := tbl.Column(p.Col)
		if err != nil {
			return engine.Query{}, err
		}
		bound, err := bindPred(p, col.Type())
		if err != nil {
			return engine.Query{}, err
		}
		q.Where.Preds = append(q.Where.Preds, bound)
	}
	return q, nil
}

// bindPred coerces a predicate's literals (recursing into OR groups) to
// the column type.
func bindPred(p expr.Pred, typ storage.Type) (expr.Pred, error) {
	bound := expr.Pred{Col: p.Col, Op: p.Op}
	for _, arg := range p.Args {
		v, err := coerce(arg, typ)
		if err != nil {
			return expr.Pred{}, fmt.Errorf("predicate on %q: %w", p.Col, err)
		}
		bound.Args = append(bound.Args, v)
	}
	for _, sub := range p.Sub {
		bs, err := bindPred(sub, typ)
		if err != nil {
			return expr.Pred{}, err
		}
		bound.Sub = append(bound.Sub, bs)
	}
	return bound, nil
}

// coerce converts a literal to the column type where SQL would: integer
// literals widen to DOUBLE. Any other mismatch is an error.
func coerce(v storage.Value, want storage.Type) (storage.Value, error) {
	if v.Type() == want {
		return v, nil
	}
	if v.Type() == storage.Int64 && want == storage.Float64 {
		return storage.FloatValue(float64(v.Int())), nil
	}
	return storage.Value{}, fmt.Errorf("%w: %s literal vs %s column", expr.ErrTypeMismatch, v.Type(), want)
}

// Exec parses, plans, and executes a SQL string against an engine. This is
// the one-call convenience path used by the demo REPL and examples.
// EXPLAIN statements return the plan as rows of a single "plan" column.
func Exec(e Executor, query string) (*engine.Result, error) {
	return ExecContext(context.Background(), e, query)
}

// ExecContext is Exec under a context: execution honors ctx's cancellation
// and deadline at the engine's cooperative checkpoints.
func ExecContext(ctx context.Context, e Executor, query string) (*engine.Result, error) {
	t0 := time.Now()
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	res, err := ExecParsedContext(ctx, e, stmt)
	// Parsing happens before the engine's trace exists, so its span is
	// slotted in front of the plan/prune/scan children after the fact.
	if res != nil && res.Trace != nil && res.Trace.Root != nil {
		res.Trace.Root.AttachFirst(&obs.Span{Name: "parse", Start: t0, Duration: parse})
	}
	return res, err
}

// ExecParsed plans and executes an already-parsed statement (used by
// multi-table catalogs that route by stmt.Table before executing).
func ExecParsed(e Executor, stmt Statement) (*engine.Result, error) {
	return ExecParsedContext(context.Background(), e, stmt)
}

// ExecParsedContext is ExecParsed under a context. When the executor
// records workload stats, the statement's fingerprint is stamped onto the
// context here (unless the caller — e.g. the network server's statement
// cache — already did), so every SQL-routed query is attributed to its
// template.
func ExecParsedContext(ctx context.Context, e Executor, stmt Statement) (*engine.Result, error) {
	q, err := Plan(stmt, e.Table())
	if err != nil {
		return nil, err
	}
	if wr, ok := e.(workloadRecorder); ok && wr.WorkloadStats() != nil && obs.TemplateFromContext(ctx) == "" {
		ctx = obs.WithTemplate(ctx, Fingerprint(stmt))
	}
	if stmt.Explain {
		var lines []string
		if stmt.Analyze {
			// EXPLAIN ANALYZE executes the query and reports actuals;
			// the rendered plan replaces the data result.
			lines, _, err = e.ExplainAnalyzeContext(ctx, q)
		} else {
			lines, err = e.Explain(q)
		}
		if err != nil {
			return nil, err
		}
		res := &engine.Result{Columns: []string{"plan"}, Types: []storage.Type{storage.String}}
		for _, l := range lines {
			res.Rows = append(res.Rows, []storage.Value{storage.StringValue(l)})
		}
		res.Count = len(res.Rows)
		return res, nil
	}
	return e.QueryContext(ctx, q)
}
