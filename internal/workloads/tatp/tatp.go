// Package tatp implements the TATP telecom benchmark (§7.4): four tables
// hanging off SUBSCRIBER, seven single-subscriber transaction classes.
// The known best partitioning keys everything by subscriber id; the
// paper's interest is that Schism fails to learn it at 10% coverage
// because the classification attribute's cardinality exceeds the trace
// (100K subscribers vs 70K training transactions), while JECB reads it
// straight out of the code.
package tatp

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

// Per-subscriber shape.
const (
	maxAccessInfo      = 4
	maxSpecialFacility = 4
	maxCallForwarding  = 3
)

// Schema returns the four-table TATP schema.
func Schema() *schema.Schema {
	s := schema.New("tatp")
	s.AddTable("SUBSCRIBER", schema.Cols(
		"S_ID", schema.Int,
		"SUB_NBR", schema.String,
		"BIT_1", schema.Int,
		"VLR_LOCATION", schema.Int,
	), "S_ID")
	s.AddTable("ACCESS_INFO", schema.Cols(
		"AI_S_ID", schema.Int,
		"AI_TYPE", schema.Int,
		"AI_DATA", schema.Int,
	), "AI_S_ID", "AI_TYPE")
	s.AddTable("SPECIAL_FACILITY", schema.Cols(
		"SF_S_ID", schema.Int,
		"SF_TYPE", schema.Int,
		"SF_ACTIVE", schema.Int,
	), "SF_S_ID", "SF_TYPE")
	s.AddTable("CALL_FORWARDING", schema.Cols(
		"CF_S_ID", schema.Int,
		"CF_SF_TYPE", schema.Int,
		"CF_START_TIME", schema.Int,
		"CF_END_TIME", schema.Int,
	), "CF_S_ID", "CF_SF_TYPE", "CF_START_TIME")
	s.AddFK("ACCESS_INFO", []string{"AI_S_ID"}, "SUBSCRIBER", []string{"S_ID"})
	s.AddFK("SPECIAL_FACILITY", []string{"SF_S_ID"}, "SUBSCRIBER", []string{"S_ID"})
	s.AddFK("CALL_FORWARDING", []string{"CF_S_ID", "CF_SF_TYPE"},
		"SPECIAL_FACILITY", []string{"SF_S_ID", "SF_TYPE"})
	return s.MustValidate()
}

func iv(n int64) value.Value  { return value.NewInt(n) }
func sv(s string) value.Value { return value.NewString(s) }

// Generate builds a TATP database with the given number of subscribers.
func Generate(subscribers int, seed int64) (*db.DB, error) {
	if subscribers <= 0 {
		return nil, fmt.Errorf("tatp: subscribers = %d", subscribers)
	}
	rng := rand.New(rand.NewSource(seed))
	d := db.New(Schema())
	sub := d.Table("SUBSCRIBER")
	ai := d.Table("ACCESS_INFO")
	sf := d.Table("SPECIAL_FACILITY")
	cf := d.Table("CALL_FORWARDING")
	for s := 0; s < subscribers; s++ {
		sid := int64(s)
		sub.MustInsert(iv(sid), sv(fmt.Sprintf("%015d", s)), iv(int64(rng.Intn(2))), iv(rng.Int63n(1<<31)))
		for t := 0; t < 1+rng.Intn(maxAccessInfo); t++ {
			ai.MustInsert(iv(sid), iv(int64(t)), iv(int64(rng.Intn(256))))
		}
		nsf := 1 + rng.Intn(maxSpecialFacility)
		for t := 0; t < nsf; t++ {
			sf.MustInsert(iv(sid), iv(int64(t)), iv(int64(rng.Intn(2))))
		}
		for c := 0; c < rng.Intn(maxCallForwarding+1); c++ {
			cf.MustInsert(iv(sid), iv(int64(rng.Intn(nsf))), iv(int64(c*8)), iv(int64(c*8+8)))
		}
	}
	return d, nil
}

var (
	getSubscriberDataProc = sqlparse.MustProcedure("GetSubscriberData",
		[]string{"s_id"}, `
		SELECT SUB_NBR, BIT_1, VLR_LOCATION FROM SUBSCRIBER WHERE S_ID = @s_id;
	`)
	getNewDestinationProc = sqlparse.MustProcedure("GetNewDestination",
		[]string{"s_id", "sf_type", "start_time"}, `
		SELECT SF_ACTIVE FROM SPECIAL_FACILITY WHERE SF_S_ID = @s_id AND SF_TYPE = @sf_type;
		SELECT CF_END_TIME FROM CALL_FORWARDING
			WHERE CF_S_ID = @s_id AND CF_SF_TYPE = @sf_type AND CF_START_TIME = @start_time;
	`)
	getAccessDataProc = sqlparse.MustProcedure("GetAccessData",
		[]string{"s_id", "ai_type"}, `
		SELECT AI_DATA FROM ACCESS_INFO WHERE AI_S_ID = @s_id AND AI_TYPE = @ai_type;
	`)
	updateSubscriberDataProc = sqlparse.MustProcedure("UpdateSubscriberData",
		[]string{"s_id", "sf_type", "bit", "active"}, `
		UPDATE SUBSCRIBER SET BIT_1 = @bit WHERE S_ID = @s_id;
		UPDATE SPECIAL_FACILITY SET SF_ACTIVE = @active WHERE SF_S_ID = @s_id AND SF_TYPE = @sf_type;
	`)
	updateLocationProc = sqlparse.MustProcedure("UpdateLocation",
		[]string{"sub_nbr", "location"}, `
		SELECT @s_id = S_ID FROM SUBSCRIBER WHERE SUB_NBR = @sub_nbr;
		UPDATE SUBSCRIBER SET VLR_LOCATION = @location WHERE S_ID = @s_id;
	`)
	insertCallForwardingProc = sqlparse.MustProcedure("InsertCallForwarding",
		[]string{"sub_nbr", "sf_type", "start_time", "end_time"}, `
		SELECT @s_id = S_ID FROM SUBSCRIBER WHERE SUB_NBR = @sub_nbr;
		SELECT SF_TYPE FROM SPECIAL_FACILITY WHERE SF_S_ID = @s_id;
		INSERT INTO CALL_FORWARDING (CF_S_ID, CF_SF_TYPE, CF_START_TIME, CF_END_TIME)
			VALUES (@s_id, @sf_type, @start_time, @end_time);
	`)
	deleteCallForwardingProc = sqlparse.MustProcedure("DeleteCallForwarding",
		[]string{"sub_nbr", "sf_type", "start_time"}, `
		SELECT @s_id = S_ID FROM SUBSCRIBER WHERE SUB_NBR = @sub_nbr;
		DELETE FROM CALL_FORWARDING
			WHERE CF_S_ID = @s_id AND CF_SF_TYPE = @sf_type AND CF_START_TIME = @start_time;
	`)
)

type bench struct{}

// New returns the TATP benchmark.
func New() workloads.Benchmark { return bench{} }

func (bench) Name() string      { return "tatp" }
func (bench) DefaultScale() int { return 2000 }

func (bench) Load(cfg workloads.Config) (*db.DB, error) {
	scale := cfg.Scale
	if scale == 0 {
		scale = 2000
	}
	return Generate(scale, cfg.Seed)
}

func (bench) Classes() []workloads.Class {
	return []workloads.Class{
		{Proc: getSubscriberDataProc, Weight: 0.35, Run: runGetSubscriberData},
		{Proc: getNewDestinationProc, Weight: 0.10, Run: runGetNewDestination},
		{Proc: getAccessDataProc, Weight: 0.35, Run: runGetAccessData},
		{Proc: updateSubscriberDataProc, Weight: 0.02, Run: runUpdateSubscriberData},
		{Proc: updateLocationProc, Weight: 0.14, Run: runUpdateLocation},
		{Proc: insertCallForwardingProc, Weight: 0.02, Run: runInsertCallForwarding},
		{Proc: deleteCallForwardingProc, Weight: 0.02, Run: runDeleteCallForwarding},
	}
}

func subscribers(d *db.DB) int64 { return int64(d.Table("SUBSCRIBER").Len()) }

func subKey(s int64) value.Key { return value.MakeKey(iv(s)) }

func runGetSubscriberData(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("GetSubscriberData", map[string]value.Value{"s_id": iv(s)})
	col.Read("SUBSCRIBER", subKey(s))
	col.Commit()
}

func runGetNewDestination(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("GetNewDestination", map[string]value.Value{
		"s_id": iv(s), "sf_type": iv(0), "start_time": iv(0),
	})
	sf, cf := d.Table("SPECIAL_FACILITY"), d.Table("CALL_FORWARDING")
	for _, row := range sf.LookupRows("SF_S_ID", iv(s)) {
		col.Read("SPECIAL_FACILITY", sf.PKOf(row))
	}
	for _, row := range cf.LookupRows("CF_S_ID", iv(s)) {
		col.Read("CALL_FORWARDING", cf.PKOf(row))
	}
	col.Commit()
}

func runGetAccessData(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("GetAccessData", map[string]value.Value{"s_id": iv(s), "ai_type": iv(0)})
	ai := d.Table("ACCESS_INFO")
	for _, row := range ai.LookupRows("AI_S_ID", iv(s)) {
		col.Read("ACCESS_INFO", ai.PKOf(row))
	}
	col.Commit()
}

func runUpdateSubscriberData(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("UpdateSubscriberData", map[string]value.Value{
		"s_id": iv(s), "sf_type": iv(0), "bit": iv(1), "active": iv(1),
	})
	col.Write("SUBSCRIBER", subKey(s))
	sf := d.Table("SPECIAL_FACILITY")
	if rows := sf.LookupRows("SF_S_ID", iv(s)); len(rows) > 0 {
		col.Write("SPECIAL_FACILITY", sf.PKOf(rows[0])) // one facility type
	}
	col.Commit()
}

func runUpdateLocation(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("UpdateLocation", map[string]value.Value{
		"sub_nbr": sv(fmt.Sprintf("%015d", s)), "location": iv(rng.Int63n(1 << 31)),
	})
	col.Write("SUBSCRIBER", subKey(s))
	col.Commit()
}

func runInsertCallForwarding(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("InsertCallForwarding", map[string]value.Value{
		"sub_nbr": sv(fmt.Sprintf("%015d", s)), "sf_type": iv(0),
		"start_time": iv(100 + rng.Int63n(1_000_000)), "end_time": iv(0),
	})
	col.Read("SUBSCRIBER", subKey(s))
	var sfType int64 = -1
	sf := d.Table("SPECIAL_FACILITY")
	for _, row := range sf.LookupRows("SF_S_ID", iv(s)) {
		col.Read("SPECIAL_FACILITY", sf.PKOf(row))
		if sfType < 0 {
			sfType = row[1].Int()
		}
	}
	if sfType < 0 {
		col.Abort()
		return
	}
	start := 100 + rng.Int63n(1_000_000)
	key := value.MakeKey(iv(s), iv(sfType), iv(start))
	if _, exists := d.Table("CALL_FORWARDING").Get(key); !exists {
		d.Table("CALL_FORWARDING").MustInsert(iv(s), iv(sfType), iv(start), iv(start+8))
		col.Write("CALL_FORWARDING", key)
		col.Commit()
		return
	}
	col.Abort()
}

func runDeleteCallForwarding(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	s := rng.Int63n(subscribers(d))
	col.Begin("DeleteCallForwarding", map[string]value.Value{
		"sub_nbr": sv(fmt.Sprintf("%015d", s)), "sf_type": iv(0), "start_time": iv(0),
	})
	col.Read("SUBSCRIBER", subKey(s))
	cf := d.Table("CALL_FORWARDING")
	if rows := cf.LookupRows("CF_S_ID", iv(s)); len(rows) > 0 {
		k := cf.PKOf(rows[0])
		col.Write("CALL_FORWARDING", k)
		cf.Delete(k)
	}
	col.Commit()
}
