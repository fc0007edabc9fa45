// Package auctionmark implements the AuctionMark internet-auction
// benchmark (§7.4). Non-replicated tables are mostly accessible through a
// common user id, but bidding creates m-to-n relationships between buyers
// and sellers (a bid touches the buyer's row and the seller's item), so
// the workload is not completely partitionable — JECB lands close to
// Horticulture and clearly ahead of coverage-limited Schism.
package auctionmark

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Shape constants.
const (
	CategoryCount = 16
	ItemsPerUser  = 3
)

// Schema returns the AuctionMark schema: CATEGORY and GLOBAL_ATTRIBUTE
// reference data, USERACCT, and the user-rooted ITEM / ITEM_BID /
// ITEM_COMMENT / USER_FEEDBACK tables.
func Schema() *schema.Schema {
	s := schema.New("auctionmark")
	s.AddTable("CATEGORY", schema.Cols(
		"CAT_ID", schema.Int, "CAT_NAME", schema.String), "CAT_ID")
	s.AddTable("GLOBAL_ATTRIBUTE", schema.Cols(
		"GA_ID", schema.Int, "GA_NAME", schema.String), "GA_ID")
	s.AddTable("USERACCT", schema.Cols(
		"U_ID", schema.Int,
		"U_RATING", schema.Int,
		"U_BALANCE", schema.Float,
	), "U_ID")
	s.AddTable("ITEM", schema.Cols(
		"I_ID", schema.Int,
		"I_U_ID", schema.Int, // seller
		"I_CAT_ID", schema.Int,
		"I_CURRENT_PRICE", schema.Float,
		"I_NUM_BIDS", schema.Int,
	), "I_ID")
	s.AddTable("ITEM_BID", schema.Cols(
		"IB_ID", schema.Int,
		"IB_I_ID", schema.Int,
		"IB_BUYER_ID", schema.Int,
		"IB_BID", schema.Float,
	), "IB_ID")
	s.AddTable("ITEM_COMMENT", schema.Cols(
		"IC_ID", schema.Int,
		"IC_I_ID", schema.Int,
		"IC_U_ID", schema.Int, // commenting buyer
		"IC_TEXT", schema.String,
	), "IC_ID")
	s.AddTable("USER_FEEDBACK", schema.Cols(
		"UF_ID", schema.Int,
		"UF_U_ID", schema.Int, // rated user
		"UF_I_ID", schema.Int,
		"UF_RATING", schema.Int,
	), "UF_ID")
	s.AddFK("ITEM", []string{"I_U_ID"}, "USERACCT", []string{"U_ID"})
	s.AddFK("ITEM", []string{"I_CAT_ID"}, "CATEGORY", []string{"CAT_ID"})
	s.AddFK("ITEM_BID", []string{"IB_I_ID"}, "ITEM", []string{"I_ID"})
	s.AddFK("ITEM_BID", []string{"IB_BUYER_ID"}, "USERACCT", []string{"U_ID"})
	s.AddFK("ITEM_COMMENT", []string{"IC_I_ID"}, "ITEM", []string{"I_ID"})
	s.AddFK("ITEM_COMMENT", []string{"IC_U_ID"}, "USERACCT", []string{"U_ID"})
	s.AddFK("USER_FEEDBACK", []string{"UF_U_ID"}, "USERACCT", []string{"U_ID"})
	s.AddFK("USER_FEEDBACK", []string{"UF_I_ID"}, "ITEM", []string{"I_ID"})
	return s.MustValidate()
}

func iv(n int64) value.Value   { return value.NewInt(n) }
func sv(s string) value.Value  { return value.NewString(s) }
func fv(f float64) value.Value { return value.NewFloat(f) }

// Generate builds an AuctionMark database with the given number of users.
func Generate(users int, seed int64) (*db.DB, error) {
	if users <= 0 {
		return nil, fmt.Errorf("auctionmark: users = %d", users)
	}
	rng := rand.New(rand.NewSource(seed))
	d := db.New(Schema())
	for c := 0; c < CategoryCount; c++ {
		d.Table("CATEGORY").MustInsert(iv(int64(c)), sv(fmt.Sprintf("cat-%d", c)))
	}
	for g := 0; g < 8; g++ {
		d.Table("GLOBAL_ATTRIBUTE").MustInsert(iv(int64(g)), sv(fmt.Sprintf("ga-%d", g)))
	}
	iid := int64(0)
	for u := 0; u < users; u++ {
		d.Table("USERACCT").MustInsert(iv(int64(u)), iv(int64(rng.Intn(5))), fv(0))
		for i := 0; i < ItemsPerUser; i++ {
			d.Table("ITEM").MustInsert(iv(iid), iv(int64(u)),
				iv(rng.Int63n(CategoryCount)), fv(1+rng.Float64()*99), iv(0))
			iid++
		}
	}
	return d, nil
}

var (
	getItemProc = sqlparse.MustProcedure("GetItem",
		[]string{"i_id"}, `
		SELECT @seller = I_U_ID FROM ITEM WHERE I_ID = @i_id;
		SELECT U_RATING FROM USERACCT WHERE U_ID = @seller;
	`)
	getUserInfoProc = sqlparse.MustProcedure("GetUserInfo",
		[]string{"u_id"}, `
		SELECT U_RATING, U_BALANCE FROM USERACCT WHERE U_ID = @u_id;
		SELECT UF_RATING FROM USER_FEEDBACK WHERE UF_U_ID = @u_id;
		SELECT I_CURRENT_PRICE FROM ITEM WHERE I_U_ID = @u_id;
	`)
	newBidProc = sqlparse.MustProcedure("NewBid",
		[]string{"ib_id", "i_id", "buyer_id", "bid"}, `
		SELECT @seller = I_U_ID FROM ITEM WHERE I_ID = @i_id;
		UPDATE ITEM SET I_NUM_BIDS = I_NUM_BIDS + 1, I_CURRENT_PRICE = @bid WHERE I_ID = @i_id;
		SELECT U_BALANCE FROM USERACCT WHERE U_ID = @buyer_id;
		INSERT INTO ITEM_BID (IB_ID, IB_I_ID, IB_BUYER_ID, IB_BID)
			VALUES (@ib_id, @i_id, @buyer_id, @bid);
	`)
	newItemProc = sqlparse.MustProcedure("NewItem",
		[]string{"i_id", "u_id", "cat_id"}, `
		SELECT U_BALANCE FROM USERACCT WHERE U_ID = @u_id;
		INSERT INTO ITEM (I_ID, I_U_ID, I_CAT_ID, I_CURRENT_PRICE, I_NUM_BIDS)
			VALUES (@i_id, @u_id, @cat_id, 1, 0);
	`)
	newCommentProc = sqlparse.MustProcedure("NewComment",
		[]string{"ic_id", "i_id", "u_id"}, `
		SELECT @seller = I_U_ID FROM ITEM WHERE I_ID = @i_id;
		INSERT INTO ITEM_COMMENT (IC_ID, IC_I_ID, IC_U_ID, IC_TEXT)
			VALUES (@ic_id, @i_id, @u_id, 'nice');
	`)
	newFeedbackProc = sqlparse.MustProcedure("NewFeedback",
		[]string{"uf_id", "u_id", "i_id", "rating"}, `
		UPDATE USERACCT SET U_RATING = U_RATING + @rating WHERE U_ID = @u_id;
		INSERT INTO USER_FEEDBACK (UF_ID, UF_U_ID, UF_I_ID, UF_RATING)
			VALUES (@uf_id, @u_id, @i_id, @rating);
	`)
	updateItemProc = sqlparse.MustProcedure("UpdateItem",
		[]string{"i_id", "price"}, `
		UPDATE ITEM SET I_CURRENT_PRICE = @price WHERE I_ID = @i_id;
		SELECT @seller = I_U_ID FROM ITEM WHERE I_ID = @i_id;
		SELECT U_BALANCE FROM USERACCT WHERE U_ID = @seller;
	`)
)

type bench struct{}

// New returns the AuctionMark benchmark.
func New() workloads.Benchmark { return bench{} }

func (bench) Name() string      { return "auctionmark" }
func (bench) DefaultScale() int { return 500 }

func (bench) Load(cfg workloads.Config) (*db.DB, error) {
	scale := cfg.Scale
	if scale == 0 {
		scale = 500
	}
	return Generate(scale, cfg.Seed)
}

func (bench) Classes() []workloads.Class {
	return []workloads.Class{
		{Proc: getItemProc, Weight: 0.25, Run: runGetItem},
		{Proc: getUserInfoProc, Weight: 0.20, Run: runGetUserInfo},
		{Proc: newBidProc, Weight: 0.25, Run: runNewBid},
		{Proc: newItemProc, Weight: 0.10, Run: runNewItem},
		{Proc: newCommentProc, Weight: 0.05, Run: runNewComment},
		{Proc: newFeedbackProc, Weight: 0.05, Run: runNewFeedback},
		{Proc: updateItemProc, Weight: 0.10, Run: runUpdateItem},
	}
}

func users(d *db.DB) int64 { return int64(d.Table("USERACCT").Len()) }

// randomItem returns a random live item key plus its id and seller.
func randomItem(d *db.DB, rng *rand.Rand) (value.Key, int64, int64, bool) {
	it := d.Table("ITEM")
	n := it.Len()
	if n == 0 {
		return "", 0, 0, false
	}
	k := it.KeyAt(rng.Intn(n))
	row, _ := it.Get(k)
	return k, row[0].Int(), row[1].Int(), true
}

func runGetItem(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	k, iid, seller, ok := randomItem(d, rng)
	if !ok {
		return
	}
	col.Begin("GetItem", map[string]value.Value{"i_id": iv(iid)})
	col.Read("ITEM", k)
	col.Read("USERACCT", value.MakeKey(iv(seller)))
	col.Commit()
}

func runGetUserInfo(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	u := rng.Int63n(users(d))
	col.Begin("GetUserInfo", map[string]value.Value{"u_id": iv(u)})
	col.Read("USERACCT", value.MakeKey(iv(u)))
	uf, it := d.Table("USER_FEEDBACK"), d.Table("ITEM")
	for _, row := range uf.LookupRows("UF_U_ID", iv(u)) {
		col.Read("USER_FEEDBACK", uf.PKOf(row))
	}
	for _, row := range it.LookupRows("I_U_ID", iv(u)) {
		col.Read("ITEM", it.PKOf(row))
	}
	col.Commit()
}

func runNewBid(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	k, iid, seller, ok := randomItem(d, rng)
	if !ok {
		return
	}
	buyer := rng.Int63n(users(d))
	for buyer == seller {
		buyer = rng.Int63n(users(d))
	}
	ibID := rng.Int63()
	col.Begin("NewBid", map[string]value.Value{
		"ib_id": iv(ibID), "i_id": iv(iid), "buyer_id": iv(buyer), "bid": fv(10),
	})
	col.Write("ITEM", k)
	col.Read("USERACCT", value.MakeKey(iv(buyer)))
	d.Table("ITEM_BID").MustInsert(iv(ibID), iv(iid), iv(buyer), fv(10))
	col.Write("ITEM_BID", value.MakeKey(iv(ibID)))
	col.Commit()
}

func runNewItem(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	u := rng.Int63n(users(d))
	iid := rng.Int63()
	col.Begin("NewItem", map[string]value.Value{
		"i_id": iv(iid), "u_id": iv(u), "cat_id": iv(rng.Int63n(CategoryCount)),
	})
	col.Read("USERACCT", value.MakeKey(iv(u)))
	d.Table("ITEM").MustInsert(iv(iid), iv(u), iv(rng.Int63n(CategoryCount)), fv(1), iv(0))
	col.Write("ITEM", value.MakeKey(iv(iid)))
	col.Commit()
}

func runNewComment(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	k, iid, _, ok := randomItem(d, rng)
	if !ok {
		return
	}
	u := rng.Int63n(users(d))
	icID := rng.Int63()
	col.Begin("NewComment", map[string]value.Value{
		"ic_id": iv(icID), "i_id": iv(iid), "u_id": iv(u),
	})
	col.Read("ITEM", k)
	d.Table("ITEM_COMMENT").MustInsert(iv(icID), iv(iid), iv(u), sv("nice"))
	col.Write("ITEM_COMMENT", value.MakeKey(iv(icID)))
	col.Commit()
}

func runNewFeedback(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	_, iid, seller, ok := randomItem(d, rng)
	if !ok {
		return
	}
	ufID := rng.Int63()
	col.Begin("NewFeedback", map[string]value.Value{
		"uf_id": iv(ufID), "u_id": iv(seller), "i_id": iv(iid), "rating": iv(1),
	})
	col.Write("USERACCT", value.MakeKey(iv(seller)))
	d.Table("USER_FEEDBACK").MustInsert(iv(ufID), iv(seller), iv(iid), iv(1))
	col.Write("USER_FEEDBACK", value.MakeKey(iv(ufID)))
	col.Commit()
}

func runUpdateItem(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	k, iid, seller, ok := randomItem(d, rng)
	if !ok {
		return
	}
	col.Begin("UpdateItem", map[string]value.Value{
		"i_id": iv(iid), "price": fv(rng.Float64() * 100),
	})
	col.Write("ITEM", k)
	col.Read("USERACCT", value.MakeKey(iv(seller)))
	col.Commit()
}
