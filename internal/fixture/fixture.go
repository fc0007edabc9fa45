// Package fixture provides the paper's running example (§3, Figures 1–2):
// the three-table TPC-E fragment, the exact data of Figure 1, the CustInfo
// stored procedure, and a trace generator for it. Tests across the
// repository and the quickstart example share it as a small, fully
// understood workload whose optimal partitioning (everything by CA_C_ID)
// is known in closed form.
package fixture

import (
	"math/rand"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
)

// CustInfoSchema returns the Figure 1 schema: CUSTOMER_ACCOUNT, TRADE and
// HOLDING_SUMMARY with their key–foreign-key constraints.
func CustInfoSchema() *schema.Schema {
	s := schema.New("custinfo")
	s.AddTable("CUSTOMER_ACCOUNT",
		schema.Cols("CA_ID", schema.Int, "CA_C_ID", schema.Int),
		"CA_ID")
	s.AddTable("TRADE",
		schema.Cols("T_ID", schema.Int, "T_CA_ID", schema.Int, "T_QTY", schema.Int),
		"T_ID")
	s.AddTable("HOLDING_SUMMARY",
		schema.Cols("HS_S_SYMB", schema.String, "HS_CA_ID", schema.Int, "HS_QTY", schema.Int),
		"HS_S_SYMB", "HS_CA_ID")
	s.AddFK("TRADE", []string{"T_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	s.AddFK("HOLDING_SUMMARY", []string{"HS_CA_ID"}, "CUSTOMER_ACCOUNT", []string{"CA_ID"})
	return s.MustValidate()
}

// CustInfoDB returns a database loaded with the exact rows of Figure 1.
func CustInfoDB() *db.DB {
	d := db.New(CustInfoSchema())
	ca := d.Table("CUSTOMER_ACCOUNT")
	for _, r := range [][2]int64{{1, 1}, {7, 2}, {8, 1}, {10, 2}} {
		ca.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]))
	}
	tr := d.Table("TRADE")
	for _, r := range [][3]int64{
		{1, 1, 2}, {2, 7, 1}, {3, 10, 3}, {4, 8, 1},
		{5, 8, 3}, {6, 7, 4}, {7, 1, 1}, {8, 10, 1},
	} {
		tr.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]), value.NewInt(r[2]))
	}
	hs := d.Table("HOLDING_SUMMARY")
	for _, r := range []struct {
		sym    string
		ca, qt int64
	}{
		{"ADLAE", 1, 3}, {"APCFY", 1, 5}, {"AQLC", 7, 6}, {"ASTT", 10, 4},
		{"BEBE", 10, 5}, {"BLS", 8, 9}, {"CAV", 8, 3}, {"CPN", 7, 1},
	} {
		hs.MustInsert(value.NewString(r.sym), value.NewInt(r.ca), value.NewInt(r.qt))
	}
	return d
}

// CustInfoSQL is the stored procedure body of Example 1.
const CustInfoSQL = `
	SELECT SUM(HS_QTY)
	FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT on HS_CA_ID = CA_ID
	WHERE CA_C_ID = @cust_id;

	SELECT AVG(T_QTY)
	FROM TRADE join CUSTOMER_ACCOUNT on T_CA_ID = CA_ID
	WHERE CA_C_ID = @cust_id;
`

// CustInfoProcedure returns the parsed CustInfo stored procedure.
func CustInfoProcedure() *sqlparse.Procedure {
	return sqlparse.MustProcedure("CustInfo", []string{"cust_id"}, CustInfoSQL)
}

// TradePath is Example 2's join path
// {T_ID} -> {T_CA_ID} -> {CA_ID} -> {CA_C_ID}.
func TradePath() schema.JoinPath {
	return schema.NewJoinPath(
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_ID"}},
		schema.ColumnSet{Table: "TRADE", Columns: []string{"T_CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_C_ID"}},
	)
}

// HSPath is Example 2's composite-key join path
// {HS_S_SYMB, HS_CA_ID} -> {HS_CA_ID} -> {CA_ID} -> {CA_C_ID}.
func HSPath() schema.JoinPath {
	return schema.NewJoinPath(
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_S_SYMB", "HS_CA_ID"}},
		schema.ColumnSet{Table: "HOLDING_SUMMARY", Columns: []string{"HS_CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_C_ID"}},
	)
}

// CAPath is the within-table path {CA_ID} -> {CA_C_ID}.
func CAPath() schema.JoinPath {
	return schema.NewJoinPath(
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_ID"}},
		schema.ColumnSet{Table: "CUSTOMER_ACCOUNT", Columns: []string{"CA_C_ID"}},
	)
}

// TradeUpdateSQL is a writing companion class to CustInfo: it resolves a
// customer's account and updates the quantity of that account's trades.
// The @ca_id data flow makes the TRADE→CUSTOMER_ACCOUNT join implicit.
const TradeUpdateSQL = `
	SELECT @ca_id = CA_ID FROM CUSTOMER_ACCOUNT WHERE CA_C_ID = @cust_id;
	UPDATE CUSTOMER_ACCOUNT SET CA_C_ID = CA_C_ID WHERE CA_ID = @ca_id;
	UPDATE TRADE SET T_QTY = @qty WHERE T_CA_ID = @ca_id;
`

// TradeUpdateProcedure returns the parsed TradeUpdate stored procedure.
func TradeUpdateProcedure() *sqlparse.Procedure {
	return sqlparse.MustProcedure("TradeUpdate", []string{"cust_id", "qty"}, TradeUpdateSQL)
}

// MixedTrace generates a workload of ~70% CustInfo reads and ~30%
// TradeUpdate writes. HOLDING_SUMMARY is only ever read, so JECB's Phase 1
// will replicate it; TRADE and CUSTOMER_ACCOUNT must be partitioned.
func MixedTrace(d *db.DB, n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	col := trace.NewCollector()
	ca := d.Table("CUSTOMER_ACCOUNT")
	tr := d.Table("TRADE")
	hs := d.Table("HOLDING_SUMMARY")
	for i := 0; i < n; i++ {
		cust := value.NewInt(1 + rng.Int63n(2))
		if rng.Float64() < 0.7 {
			col.Begin("CustInfo", map[string]value.Value{"cust_id": cust})
			for _, caRow := range ca.LookupRows("CA_C_ID", cust) {
				col.Read("CUSTOMER_ACCOUNT", ca.PKOf(caRow))
				for _, row := range hs.LookupRows("HS_CA_ID", caRow[0]) {
					col.Read("HOLDING_SUMMARY", hs.PKOf(row))
				}
				for _, row := range tr.LookupRows("T_CA_ID", caRow[0]) {
					col.Read("TRADE", tr.PKOf(row))
				}
			}
			col.Commit()
			continue
		}
		col.Begin("TradeUpdate", map[string]value.Value{
			"cust_id": cust, "qty": value.NewInt(rng.Int63n(10)),
		})
		accounts := ca.LookupRows("CA_C_ID", cust)
		caRow := accounts[rng.Intn(len(accounts))]
		col.Write("CUSTOMER_ACCOUNT", ca.PKOf(caRow))
		for _, row := range tr.LookupRows("T_CA_ID", caRow[0]) {
			col.Write("TRADE", tr.PKOf(row))
		}
		col.Commit()
	}
	return col.Trace()
}

// CustInfoTrace executes n CustInfo transactions against the Figure 1
// database with customer ids drawn uniformly from {1, 2}, recording the
// tuples each touches exactly as the instrumented stored procedure would.
func CustInfoTrace(d *db.DB, n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	col := trace.NewCollector()
	ca := d.Table("CUSTOMER_ACCOUNT")
	tr := d.Table("TRADE")
	hs := d.Table("HOLDING_SUMMARY")
	for i := 0; i < n; i++ {
		cust := value.NewInt(1 + rng.Int63n(2))
		col.Begin("CustInfo", map[string]value.Value{"cust_id": cust})
		for _, caRow := range ca.LookupRows("CA_C_ID", cust) {
			col.Read("CUSTOMER_ACCOUNT", ca.PKOf(caRow))
			caID := caRow[0]
			for _, row := range hs.LookupRows("HS_CA_ID", caID) {
				col.Read("HOLDING_SUMMARY", hs.PKOf(row))
			}
			for _, row := range tr.LookupRows("T_CA_ID", caID) {
				col.Read("TRADE", tr.PKOf(row))
			}
		}
		col.Commit()
	}
	return col.Trace()
}
