package tpce

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/trace"
	"repro/internal/value"
)

func customers(d *db.DB) int64 { return int64(d.Table("CUSTOMER").Len()) }
func brokers(d *db.DB) int64   { return int64(d.Table("BROKER").Len()) }

func key1(v value.Value) value.Key { return value.MakeKey(v) }

// randomAccount picks a random customer account key + its row.
func randomAccount(d *db.DB, rng *rand.Rand) (value.Key, value.Tuple) {
	ca := d.Table("CUSTOMER_ACCOUNT")
	// Account ids are dense 0..Len-1 from the generator (accounts are
	// never deleted).
	id := rng.Int63n(int64(ca.Len()))
	k := key1(iv(id))
	row, ok := ca.Get(k)
	if !ok {
		// Defensive: fall back to an arbitrary live account.
		kk := ca.KeyAt(0)
		row, _ = ca.Get(kk)
		return kk, row
	}
	return k, row
}

// randomTrade samples a random live trade.
func randomTrade(d *db.DB, rng *rand.Rand) (value.Key, value.Tuple, bool) {
	t := d.Table("TRADE")
	n := t.Len()
	if n == 0 {
		return "", nil, false
	}
	k := t.KeyAt(rng.Intn(n))
	row, _ := t.Get(k)
	return k, row, true
}

// readRows records a read of every row of table whose column equals v.
func readRows(d *db.DB, col *trace.Collector, table, column string, v value.Value) {
	t := d.Table(table)
	for _, row := range t.LookupRows(column, v) {
		col.Read(table, t.PKOf(row))
	}
}

func runCustomerPosition(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	c := rng.Int63n(customers(d))
	col.Begin("Customer-Position", map[string]value.Value{
		"tax_id": sv(fmt.Sprintf("TAX%09d", c)),
	})
	col.Read("CUSTOMER", key1(iv(c)))
	ca, hs := d.Table("CUSTOMER_ACCOUNT"), d.Table("HOLDING_SUMMARY")
	var lastAcct value.Value
	for _, row := range ca.LookupRows("CA_C_ID", iv(c)) {
		col.Read("CUSTOMER_ACCOUNT", ca.PKOf(row))
		lastAcct = row[0]
		for _, hsRow := range hs.LookupRows("HS_CA_ID", row[0]) {
			col.Read("HOLDING_SUMMARY", hs.PKOf(hsRow))
			col.Read("LAST_TRADE", key1(hsRow[1]))
		}
	}
	// Frame 2: recent trades of one account.
	if !lastAcct.IsNull() {
		trade := d.Table("TRADE")
		for i, tRow := range trade.LookupRows("T_CA_ID", lastAcct) {
			if i >= 5 {
				break
			}
			col.Read("TRADE", trade.PKOf(tRow))
			readRows(d, col, "TRADE_HISTORY", "TH_T_ID", tRow[0])
			col.Read("STATUS_TYPE", key1(tRow[2]))
		}
	}
	col.Commit()
}

func runMarketWatch(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	_, row := randomAccount(d, rng)
	acct := row[0]
	cust := row[2]
	col.Begin("Market-Watch", map[string]value.Value{"acct_id": acct, "c_id": cust})
	col.Read("WATCH_LIST", key1(cust))
	wi, hs := d.Table("WATCH_ITEM"), d.Table("HOLDING_SUMMARY")
	for _, wRow := range wi.LookupRows("WI_WL_ID", cust) {
		col.Read("WATCH_ITEM", wi.PKOf(wRow))
		col.Read("LAST_TRADE", key1(wRow[1]))
		col.Read("SECURITY", key1(wRow[1]))
	}
	for _, hRow := range hs.LookupRows("HS_CA_ID", acct) {
		col.Read("HOLDING_SUMMARY", hs.PKOf(hRow))
		col.Read("LAST_TRADE", key1(hRow[1]))
	}
	col.Commit()
}

func runSecurityDetail(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	sy := symbol(rng.Int63n(Securities))
	col.Begin("Security-Detail", map[string]value.Value{"symb": sv(sy)})
	col.Read("SECURITY", key1(sv(sy)))
	sRow, _ := d.Table("SECURITY").Get(key1(sv(sy)))
	co := sRow[2]
	col.Read("COMPANY", key1(co))
	coRow, _ := d.Table("COMPANY").Get(key1(co))
	col.Read("INDUSTRY", key1(coRow[2]))
	col.Read("EXCHANGE", key1(sRow[3]))
	readRows(d, col, "COMPANY_COMPETITOR", "CP_CO_ID", co)
	readRows(d, col, "FINANCIAL", "FI_CO_ID", co)
	readRows(d, col, "DAILY_MARKET", "DM_S_SYMB", sv(sy))
	nx := d.Table("NEWS_XREF")
	for _, nRow := range nx.LookupRows("NX_CO_ID", co) {
		col.Read("NEWS_XREF", nx.PKOf(nRow))
		col.Read("NEWS_ITEM", key1(nRow[0]))
	}
	col.Read("LAST_TRADE", key1(sv(sy)))
	col.Commit()
}

func runBrokerVolume(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	nb := brokers(d)
	// 2-4 random brokers (the paper's group-1 classes take random value
	// lists as input, which is exactly why they are non-partitionable).
	n := 2 + rng.Intn(3)
	seen := map[int64]bool{}
	var picks []int64
	for i := 0; i < n; i++ {
		b := rng.Int63n(nb)
		if !seen[b] {
			seen[b] = true
			picks = append(picks, b)
		}
	}
	col.Begin("Broker-Volume", map[string]value.Value{
		"b_name": sv(fmt.Sprintf("Broker %03d", picks[0])),
	})
	for _, b := range picks {
		col.Read("BROKER", key1(iv(b)))
		readRows(d, col, "TRADE_REQUEST", "TR_B_ID", iv(b))
	}
	col.Commit()
}

func runMarketFeed(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	col.Begin("Market-Feed", map[string]value.Value{
		"symb": sv(symbol(rng.Int63n(Securities))), "price": fv(25),
		"vol": iv(100), "dts": iv(rng.Int63n(DateDomain)),
	})
	for i := 0; i < 5; i++ {
		sy := sv(symbol(rng.Int63n(Securities)))
		col.Write("LAST_TRADE", key1(sy))
		lt := d.Table("LAST_TRADE")
		ltRow, _ := lt.Get(key1(sy))
		_ = lt.Update(key1(sy), []string{"LT_PRICE"}, []value.Value{fv(ltRow[1].Float() + 0.1)})
		// Trigger pending limit orders on this symbol.
		trq := d.Table("TRADE_REQUEST")
		for j, trRow := range trq.LookupRows("TR_S_SYMB", sy) {
			if j >= 2 {
				break
			}
			tk := trq.PKOf(trRow)
			col.Write("TRADE_REQUEST", tk)
			tid := trRow[0]
			trq.Delete(tk)
			tradeKey := key1(tid)
			col.Write("TRADE", tradeKey)
			_ = d.Table("TRADE").Update(tradeKey, []string{"T_ST_ID"}, []value.Value{sv("SBMT")})
			thk := value.MakeKey(tid, sv("SBMT"))
			if _, dup := d.Table("TRADE_HISTORY").Get(thk); !dup {
				d.Table("TRADE_HISTORY").MustInsert(tid, sv("SBMT"), iv(rng.Int63n(DateDomain)))
				col.Write("TRADE_HISTORY", thk)
			}
		}
	}
	col.Commit()
}

func runTradeOrder(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	ak, row := randomAccount(d, rng)
	acct, broker, cust := row[0], row[1], row[2]
	tid := rng.Int63()
	sy := sv(symbol(rng.Int63n(Securities)))
	dts := iv(rng.Int63n(DateDomain))
	col.Begin("Trade-Order", map[string]value.Value{
		"acct_id": acct, "symb": sy, "qty": iv(100), "tt_id": sv("TLB"),
		"tax_id": sv("TAX"), "t_id": iv(tid), "dts": dts,
	})
	col.Read("CUSTOMER_ACCOUNT", ak)
	col.Read("CUSTOMER", key1(cust))
	col.Read("BROKER", key1(broker))
	readRows(d, col, "ACCOUNT_PERMISSION", "AP_CA_ID", acct)
	col.Read("LAST_TRADE", key1(sy))
	col.Read("CHARGE", value.MakeKey(sv("TLB"), iv(1)))
	col.Write("TRADE", d.Table("TRADE").MustInsert(iv(tid), dts, sv("PNDG"), sv("TLB"), sy, iv(100), acct, fv(0), sv("exec")))
	col.Write("TRADE_REQUEST", d.Table("TRADE_REQUEST").MustInsert(iv(tid), sv("TLB"), sy, iv(100), broker, fv(24)))
	col.Write("TRADE_HISTORY", d.Table("TRADE_HISTORY").MustInsert(iv(tid), sv("PNDG"), dts))
	col.Commit()
}

func runTradeResult(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	tr := d.Table("TRADE_REQUEST")
	n := tr.Len()
	if n == 0 {
		// No pending request: place one first (keeps the class's
		// broker-rooted access pattern) and process it immediately.
		runTradeOrder(d, col, rng)
		if n = tr.Len(); n == 0 {
			return
		}
	}
	trk := tr.KeyAt(rng.Intn(n))
	trRow, _ := tr.Get(trk)
	tid, sy, qty, broker := trRow[0], trRow[2], trRow[3], trRow[4]
	dts := iv(rng.Int63n(DateDomain))
	col.Begin("Trade-Result", map[string]value.Value{
		"t_id": tid, "price": fv(25), "dts": dts,
	})
	col.Write("TRADE_REQUEST", trk)
	tr.Delete(trk)
	tk := key1(tid) // TRADE's key, and HOLDING's, SETTLEMENT's, CASH_TRANSACTION's
	tRow, ok := d.Table("TRADE").GetAny(tk)
	if !ok {
		col.Abort()
		return
	}
	acct := tRow[6]
	col.Write("TRADE", tk)
	_ = d.Table("TRADE").Update(tk, []string{"T_ST_ID", "T_TRADE_PRICE"},
		[]value.Value{sv("CMPT"), fv(25)})
	thk := value.MakeKey(tid, sv("CMPT"))
	if _, dup := d.Table("TRADE_HISTORY").Get(thk); !dup {
		d.Table("TRADE_HISTORY").MustInsert(tid, sv("CMPT"), dts)
		col.Write("TRADE_HISTORY", thk)
	}
	ak := key1(acct)
	caRow, _ := d.Table("CUSTOMER_ACCOUNT").Get(ak)
	cust := caRow[2]
	col.Write("CUSTOMER_ACCOUNT", ak)
	col.Read("CUSTOMER", key1(cust))
	readRows(d, col, "CUSTOMER_TAXRATE", "CX_C_ID", cust)
	col.Read("COMMISSION_RATE", value.MakeKey(iv(1), sv("TLB"), sv("NYSE")))
	bk := key1(broker)
	col.Write("BROKER", bk)
	bRow, _ := d.Table("BROKER").Get(bk)
	_ = d.Table("BROKER").Update(bk, []string{"B_NUM_TRADES"},
		[]value.Value{iv(bRow[2].Int() + 1)})
	// Holding summary and holdings.
	hsk := value.MakeKey(acct, sy)
	if hsRow, ok := d.Table("HOLDING_SUMMARY").Get(hsk); ok {
		col.Write("HOLDING_SUMMARY", hsk)
		_ = d.Table("HOLDING_SUMMARY").Update(hsk, []string{"HS_QTY"},
			[]value.Value{iv(hsRow[2].Int() + qty.Int())})
	} else {
		d.Table("HOLDING_SUMMARY").MustInsert(acct, sy, qty)
		col.Write("HOLDING_SUMMARY", hsk)
	}
	if _, dup := d.Table("HOLDING").Get(tk); !dup {
		d.Table("HOLDING").MustInsert(tid, acct, sy, dts, qty)
		col.Write("HOLDING", tk)
	}
	hhk := value.MakeKey(tid, tid)
	if _, dup := d.Table("HOLDING_HISTORY").Get(hhk); !dup {
		d.Table("HOLDING_HISTORY").MustInsert(tid, tid, iv(0), qty)
		col.Write("HOLDING_HISTORY", hhk)
	}
	if _, dup := d.Table("SETTLEMENT").Get(tk); !dup {
		d.Table("SETTLEMENT").MustInsert(tid, sv("cash"), fv(100))
		col.Write("SETTLEMENT", tk)
	}
	if _, dup := d.Table("CASH_TRANSACTION").Get(tk); !dup {
		d.Table("CASH_TRANSACTION").MustInsert(tid, dts, fv(100))
		col.Write("CASH_TRANSACTION", tk)
	}
	col.Commit()
}

func runTradeStatus(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	ak, row := randomAccount(d, rng)
	acct, broker := row[0], row[1]
	col.Begin("Trade-Status", map[string]value.Value{"acct_id": acct})
	col.Read("CUSTOMER_ACCOUNT", ak)
	col.Read("BROKER", key1(broker))
	trade := d.Table("TRADE")
	for i, tRow := range trade.LookupRows("T_CA_ID", acct) {
		if i >= 8 {
			break
		}
		col.Read("TRADE", trade.PKOf(tRow))
		readRows(d, col, "TRADE_HISTORY", "TH_T_ID", tRow[0])
		col.Read("STATUS_TYPE", key1(tRow[2]))
	}
	col.Commit()
}

func runTradeLookup1(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	col.Begin("Trade-Lookup Frame1", map[string]value.Value{"t_id": iv(0)})
	for i := 0; i < 8; i++ {
		tk, tRow, ok := randomTrade(d, rng)
		if !ok {
			break
		}
		col.Read("TRADE", tk)
		tid := tRow[0]
		readTradeChain(d, col, tid, true)
	}
	col.Commit()
}

// readTradeChain reads a trade's settlement / cash transaction / history
// rows when they exist.
func readTradeChain(d *db.DB, col *trace.Collector, tid value.Value, withHistory bool) {
	tk := key1(tid)
	if _, ok := d.Table("SETTLEMENT").Get(tk); ok {
		col.Read("SETTLEMENT", tk)
	}
	if _, ok := d.Table("CASH_TRANSACTION").Get(tk); ok {
		col.Read("CASH_TRANSACTION", tk)
	}
	if withHistory {
		readRows(d, col, "TRADE_HISTORY", "TH_T_ID", tid)
	}
}

func runTradeLookup2(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	ak, row := randomAccount(d, rng)
	acct := row[0]
	start := rng.Int63n(DateDomain / 2)
	end := start + int64(DateDomain/2)
	col.Begin("Trade-Lookup Frame2", map[string]value.Value{
		"acct_id": acct, "start_dts": iv(start), "end_dts": iv(end),
	})
	col.Read("CUSTOMER_ACCOUNT", ak)
	trade := d.Table("TRADE")
	for _, tRow := range trade.LookupRows("T_CA_ID", acct) {
		if dts := tRow[1].Int(); dts >= start && dts <= end {
			col.Read("TRADE", trade.PKOf(tRow))
			readTradeChain(d, col, tRow[0], false)
		}
	}
	col.Commit()
}

func runTradeLookup3(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	// Anchor on an existing trade so the (symbol, date) pair hits real
	// rows — usually several, which is what keeps T_ID from being a
	// mapping-independent root for this class.
	sy, dts := sv(symbol(rng.Int63n(Securities))), rng.Int63n(DateDomain)
	if _, tRow, ok := randomTrade(d, rng); ok {
		sy, dts = tRow[4], tRow[1].Int()
	}
	col.Begin("Trade-Lookup Frame3", map[string]value.Value{"symb": sy, "dts": iv(dts)})
	trade := d.Table("TRADE")
	for _, tRow := range trade.LookupRows("T_S_SYMB", sy) {
		if tRow[1].Int() == dts {
			col.Read("TRADE", trade.PKOf(tRow))
			readTradeChain(d, col, tRow[0], true)
		}
	}
	col.Commit()
}

func runTradeLookup4(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	acct, dts := anchorAccountDate(d, rng)
	col.Begin("Trade-Lookup Frame4", map[string]value.Value{"acct_id": acct, "dts": iv(dts)})
	trade := d.Table("TRADE")
	for _, tRow := range trade.LookupRows("T_CA_ID", acct) {
		if tRow[1].Int() == dts {
			col.Read("TRADE", trade.PKOf(tRow))
			readRows(d, col, "HOLDING_HISTORY", "HH_T_ID", tRow[0])
		}
	}
	col.Commit()
}

func runTradeUpdate1(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	col.Begin("Trade-Update Frame1", map[string]value.Value{"t_id": iv(0), "exec": sv("x")})
	for i := 0; i < 4; i++ {
		tk, tRow, ok := randomTrade(d, rng)
		if !ok {
			break
		}
		col.Write("TRADE", tk)
		_ = d.Table("TRADE").Update(tk, []string{"T_EXEC_NAME"}, []value.Value{sv("x")})
		readTradeChain(d, col, tRow[0], true)
	}
	col.Commit()
}

// anchorAccountDate picks an account plus the date of one of its trades,
// so account+date queries hit one or more real rows.
func anchorAccountDate(d *db.DB, rng *rand.Rand) (value.Value, int64) {
	_, row := randomAccount(d, rng)
	acct := row[0]
	dts := rng.Int63n(DateDomain)
	if rows := d.Table("TRADE").LookupRows("T_CA_ID", acct); len(rows) > 0 {
		dts = rows[rng.Intn(len(rows))][1].Int()
	}
	return acct, dts
}

func runTradeUpdate2(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	acct, dts := anchorAccountDate(d, rng)
	col.Begin("Trade-Update Frame2", map[string]value.Value{
		"acct_id": acct, "dts": iv(dts), "cash_type": sv("margin"),
	})
	trade := d.Table("TRADE")
	for _, tRow := range trade.LookupRows("T_CA_ID", acct) {
		if tRow[1].Int() == dts {
			tk := trade.PKOf(tRow) // SETTLEMENT shares TRADE's key
			col.Read("TRADE", tk)
			if _, ok := d.Table("SETTLEMENT").Get(tk); ok {
				col.Write("SETTLEMENT", tk)
				_ = d.Table("SETTLEMENT").Update(tk, []string{"SE_CASH_TYPE"},
					[]value.Value{sv("margin")})
			}
		}
	}
	col.Commit()
}

func runTradeUpdate3(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	sy, dts := sv(symbol(rng.Int63n(Securities))), rng.Int63n(DateDomain)
	if _, tRow, ok := randomTrade(d, rng); ok {
		sy, dts = tRow[4], tRow[1].Int()
	}
	col.Begin("Trade-Update Frame3", map[string]value.Value{"symb": sy, "dts": iv(dts)})
	trade := d.Table("TRADE")
	for _, tRow := range trade.LookupRows("T_S_SYMB", sy) {
		if tRow[1].Int() == dts {
			tk := trade.PKOf(tRow) // the trade chain shares TRADE's key
			col.Read("TRADE", tk)
			if _, ok := d.Table("CASH_TRANSACTION").Get(tk); ok {
				col.Write("CASH_TRANSACTION", tk)
			}
			if _, ok := d.Table("SETTLEMENT").Get(tk); ok {
				col.Read("SETTLEMENT", tk)
			}
		}
	}
	col.Commit()
}
