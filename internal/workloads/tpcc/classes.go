package tpcc

import (
	"math/rand"

	"repro/internal/db"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Remote-access rates from the TPC-C specification.
const (
	remoteSupplyProb   = 0.01 // per order line
	remoteCustomerProb = 0.15 // per Payment
)

var newOrderProc = sqlparse.MustProcedure("NewOrder",
	[]string{"w_id", "d_id", "c_id", "i_id", "supply_w_id", "qty"}, `
	SELECT W_NAME FROM WAREHOUSE WHERE W_ID = @w_id;
	SELECT @o_id = D_NEXT_O_ID FROM DISTRICT WHERE D_W_ID = @w_id AND D_ID = @d_id;
	UPDATE DISTRICT SET D_NEXT_O_ID = D_NEXT_O_ID + 1 WHERE D_W_ID = @w_id AND D_ID = @d_id;
	SELECT C_LAST FROM CUSTOMER WHERE C_W_ID = @w_id AND C_D_ID = @d_id AND C_ID = @c_id;
	INSERT INTO ORDERS (O_W_ID, O_D_ID, O_ID, O_C_ID, O_CARRIER_ID, O_OL_CNT)
		VALUES (@w_id, @d_id, @o_id, @c_id, 0, @cnt);
	INSERT INTO NEW_ORDER (NO_W_ID, NO_D_ID, NO_O_ID) VALUES (@w_id, @d_id, @o_id);
	SELECT I_PRICE FROM ITEM WHERE I_ID = @i_id;
	SELECT S_QUANTITY FROM STOCK WHERE S_W_ID = @supply_w_id AND S_I_ID = @i_id;
	UPDATE STOCK SET S_QUANTITY = S_QUANTITY - @qty WHERE S_W_ID = @supply_w_id AND S_I_ID = @i_id;
	INSERT INTO ORDER_LINE (OL_W_ID, OL_D_ID, OL_O_ID, OL_NUMBER, OL_I_ID, OL_SUPPLY_W_ID, OL_QUANTITY)
		VALUES (@w_id, @d_id, @o_id, @ol, @i_id, @supply_w_id, @qty);
`)

var paymentProc = sqlparse.MustProcedure("Payment",
	[]string{"w_id", "d_id", "c_w_id", "c_d_id", "c_id", "amount"}, `
	UPDATE WAREHOUSE SET W_YTD = W_YTD + @amount WHERE W_ID = @w_id;
	UPDATE DISTRICT SET D_YTD = D_YTD + @amount WHERE D_W_ID = @w_id AND D_ID = @d_id;
	UPDATE CUSTOMER SET C_BALANCE = C_BALANCE - @amount
		WHERE C_W_ID = @c_w_id AND C_D_ID = @c_d_id AND C_ID = @c_id;
	INSERT INTO HISTORY (H_ID, H_C_W_ID, H_C_D_ID, H_C_ID, H_W_ID, H_D_ID, H_AMOUNT)
		VALUES (@h_id, @c_w_id, @c_d_id, @c_id, @w_id, @d_id, @amount);
`)

var orderStatusProc = sqlparse.MustProcedure("OrderStatus",
	[]string{"w_id", "d_id", "c_id"}, `
	SELECT C_BALANCE FROM CUSTOMER WHERE C_W_ID = @w_id AND C_D_ID = @d_id AND C_ID = @c_id;
	SELECT @o_id = O_ID FROM ORDERS
		WHERE O_W_ID = @w_id AND O_D_ID = @d_id AND O_C_ID = @c_id
		ORDER BY O_ID DESC LIMIT 1;
	SELECT OL_I_ID, OL_QUANTITY FROM ORDER_LINE
		WHERE OL_W_ID = @w_id AND OL_D_ID = @d_id AND OL_O_ID = @o_id;
`)

var deliveryProc = sqlparse.MustProcedure("Delivery",
	[]string{"w_id", "carrier_id"}, `
	SELECT @o_id = NO_O_ID FROM NEW_ORDER
		WHERE NO_W_ID = @w_id AND NO_D_ID = @d_id ORDER BY NO_O_ID ASC LIMIT 1;
	DELETE FROM NEW_ORDER WHERE NO_W_ID = @w_id AND NO_D_ID = @d_id AND NO_O_ID = @o_id;
	SELECT @c_id = O_C_ID FROM ORDERS WHERE O_W_ID = @w_id AND O_D_ID = @d_id AND O_ID = @o_id;
	UPDATE ORDERS SET O_CARRIER_ID = @carrier_id
		WHERE O_W_ID = @w_id AND O_D_ID = @d_id AND O_ID = @o_id;
	UPDATE ORDER_LINE SET OL_QUANTITY = OL_QUANTITY
		WHERE OL_W_ID = @w_id AND OL_D_ID = @d_id AND OL_O_ID = @o_id;
	UPDATE CUSTOMER SET C_BALANCE = C_BALANCE + 1
		WHERE C_W_ID = @w_id AND C_D_ID = @d_id AND C_ID = @c_id;
`)

var stockLevelProc = sqlparse.MustProcedure("StockLevel",
	[]string{"w_id", "d_id", "threshold"}, `
	SELECT @o_id = D_NEXT_O_ID FROM DISTRICT WHERE D_W_ID = @w_id AND D_ID = @d_id;
	SELECT @i_id = OL_I_ID FROM ORDER_LINE
		WHERE OL_W_ID = @w_id AND OL_D_ID = @d_id AND OL_O_ID = @o_id;
	SELECT S_QUANTITY FROM STOCK WHERE S_W_ID = @w_id AND S_I_ID = @i_id;
`)

// bench implements workloads.Benchmark.
type bench struct{}

// New returns the TPC-C benchmark.
func New() workloads.Benchmark { return bench{} }

func (bench) Name() string      { return "tpcc" }
func (bench) DefaultScale() int { return 32 }

func (bench) Load(cfg workloads.Config) (*db.DB, error) {
	scale := cfg.Scale
	if scale == 0 {
		scale = 32
	}
	return Generate(scale, cfg.Seed)
}

func (bench) Classes() []workloads.Class {
	return []workloads.Class{
		{Proc: newOrderProc, Weight: 0.45, Run: runNewOrder},
		{Proc: paymentProc, Weight: 0.43, Run: runPayment},
		{Proc: orderStatusProc, Weight: 0.04, Run: runOrderStatus},
		{Proc: deliveryProc, Weight: 0.04, Run: runDelivery},
		{Proc: stockLevelProc, Weight: 0.04, Run: runStockLevel},
	}
}

func warehouses(d *db.DB) int64 { return int64(d.Table("WAREHOUSE").Len()) }

func wKey(w int64) value.Key        { return value.MakeKey(iv(w)) }
func dKey(w, di int64) value.Key    { return value.MakeKey(iv(w), iv(di)) }
func cKey(w, di, c int64) value.Key { return value.MakeKey(iv(w), iv(di), iv(c)) }
func oKey(w, di, o int64) value.Key { return value.MakeKey(iv(w), iv(di), iv(o)) }
func olKey(w, di, o, l int64) value.Key {
	return value.MakeKey(iv(w), iv(di), iv(o), iv(l))
}
func sKey(w, i int64) value.Key { return value.MakeKey(iv(w), iv(i)) }

func runNewOrder(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	w := rng.Int63n(warehouses(d))
	di := int64(rng.Intn(DistrictsPerWarehouse))
	c := int64(rng.Intn(CustomersPerDistrict))
	col.Begin("NewOrder", map[string]value.Value{
		"w_id": iv(w), "d_id": iv(di), "c_id": iv(c),
	})
	col.Read("WAREHOUSE", wKey(w))
	dk := dKey(w, di)
	dRow, _ := d.Table("DISTRICT").Get(dk)
	oid := dRow[4].Int()
	col.Write("DISTRICT", dk)
	if err := d.Table("DISTRICT").Update(dk, []string{"D_NEXT_O_ID"}, []value.Value{iv(oid + 1)}); err != nil {
		panic(err)
	}
	col.Read("CUSTOMER", cKey(w, di, c))
	cnt := 1 + rng.Intn(maxLinesPerOrder)
	col.Write("ORDERS", d.Table("ORDERS").MustInsert(iv(w), iv(di), iv(oid), iv(c), iv(0), iv(int64(cnt))))
	col.Write("NEW_ORDER", d.Table("NEW_ORDER").MustInsert(iv(w), iv(di), iv(oid)))
	for l := 0; l < cnt; l++ {
		item := int64(rng.Intn(Items))
		supply := w
		if rng.Float64() < remoteSupplyProb && warehouses(d) > 1 {
			for supply == w {
				supply = rng.Int63n(warehouses(d))
			}
		}
		qty := int64(1 + rng.Intn(9))
		col.Read("ITEM", value.MakeKey(iv(item)))
		sk := sKey(supply, item)
		col.Write("STOCK", sk)
		sRow, _ := d.Table("STOCK").Get(sk)
		if err := d.Table("STOCK").Update(sk, []string{"S_QUANTITY"}, []value.Value{iv(sRow[2].Int() - qty)}); err != nil {
			panic(err)
		}
		col.Write("ORDER_LINE", d.Table("ORDER_LINE").MustInsert(iv(w), iv(di), iv(oid), iv(int64(l)), iv(item), iv(supply), iv(qty)))
	}
	col.Commit()
}

func runPayment(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	w := rng.Int63n(warehouses(d))
	di := int64(rng.Intn(DistrictsPerWarehouse))
	cw, cd := w, di
	if rng.Float64() < remoteCustomerProb && warehouses(d) > 1 {
		for cw == w {
			cw = rng.Int63n(warehouses(d))
		}
		cd = int64(rng.Intn(DistrictsPerWarehouse))
	}
	c := int64(rng.Intn(CustomersPerDistrict))
	col.Begin("Payment", map[string]value.Value{
		"w_id": iv(w), "d_id": iv(di),
		"c_w_id": iv(cw), "c_d_id": iv(cd), "c_id": iv(c),
		"amount": fv(10),
	})
	col.Write("WAREHOUSE", wKey(w))
	col.Write("DISTRICT", dKey(w, di))
	col.Write("CUSTOMER", cKey(cw, cd, c))
	hid := rng.Int63()
	col.Write("HISTORY", d.Table("HISTORY").MustInsert(iv(hid), iv(cw), iv(cd), iv(c), iv(w), iv(di), fv(10)))
	col.Commit()
}

func runOrderStatus(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	w := rng.Int63n(warehouses(d))
	di := int64(rng.Intn(DistrictsPerWarehouse))
	c := int64(rng.Intn(CustomersPerDistrict))
	col.Begin("OrderStatus", map[string]value.Value{
		"w_id": iv(w), "d_id": iv(di), "c_id": iv(c),
	})
	col.Read("CUSTOMER", cKey(w, di, c))
	// Most recent order of the customer in this district.
	best := int64(-1)
	for _, row := range d.Table("ORDERS").LookupRows("O_C_ID", iv(c)) {
		if row[0].Int() == w && row[1].Int() == di && row[2].Int() > best {
			best = row[2].Int()
		}
	}
	if best >= 0 {
		ordKey := oKey(w, di, best)
		col.Read("ORDERS", ordKey)
		oRow, _ := d.Table("ORDERS").Get(ordKey)
		for l := int64(0); l < oRow[5].Int(); l++ {
			olk := olKey(w, di, best, l)
			if _, found := d.Table("ORDER_LINE").Get(olk); found {
				col.Read("ORDER_LINE", olk)
			}
		}
	}
	col.Commit()
}

func runDelivery(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	w := rng.Int63n(warehouses(d))
	col.Begin("Delivery", map[string]value.Value{
		"w_id": iv(w), "carrier_id": iv(int64(rng.Intn(10))),
	})
	// Oldest undelivered order per district.
	oldest := map[int64]int64{}
	for _, row := range d.Table("NEW_ORDER").LookupRows("NO_W_ID", iv(w)) {
		di, oid := row[1].Int(), row[2].Int()
		if cur, ok := oldest[di]; !ok || oid < cur {
			oldest[di] = oid
		}
	}
	for di := int64(0); di < DistrictsPerWarehouse; di++ {
		oid, ok := oldest[di]
		if !ok {
			continue
		}
		ordKey := oKey(w, di, oid)
		col.Write("NEW_ORDER", ordKey)
		d.Table("NEW_ORDER").Delete(ordKey)
		oRow, found := d.Table("ORDERS").Get(ordKey)
		if !found {
			continue
		}
		col.Write("ORDERS", ordKey)
		for l := int64(0); l < oRow[5].Int(); l++ {
			olk := olKey(w, di, oid, l)
			if _, found := d.Table("ORDER_LINE").Get(olk); found {
				col.Write("ORDER_LINE", olk)
			}
		}
		col.Write("CUSTOMER", cKey(w, di, oRow[3].Int()))
	}
	col.Commit()
}

func runStockLevel(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	w := rng.Int63n(warehouses(d))
	di := int64(rng.Intn(DistrictsPerWarehouse))
	col.Begin("StockLevel", map[string]value.Value{
		"w_id": iv(w), "d_id": iv(di), "threshold": iv(10),
	})
	dk := dKey(w, di)
	col.Read("DISTRICT", dk)
	dRow, _ := d.Table("DISTRICT").Get(dk)
	next := dRow[4].Int()
	// Items in the last few orders of the district, and their home stock.
	seen := map[int64]bool{}
	for oid := next - 5; oid < next; oid++ {
		if oid < 0 {
			continue
		}
		oRow, ok := d.Table("ORDERS").Get(oKey(w, di, oid))
		if !ok {
			continue
		}
		for l := int64(0); l < oRow[5].Int(); l++ {
			olk := olKey(w, di, oid, l)
			olRow, ok := d.Table("ORDER_LINE").Get(olk)
			if !ok {
				continue
			}
			col.Read("ORDER_LINE", olk)
			item := olRow[4].Int()
			if !seen[item] {
				seen[item] = true
				col.Read("STOCK", sKey(w, item))
			}
		}
	}
	col.Commit()
}
