// Package seats implements the SEATS airline-ticketing benchmark (§7.4).
// Its defining property for partitioning research: non-replicated tables
// share NO common intra-table attribute — reservations and frequent-flyer
// rows are keyed by their own ids and reach the customer only across
// key–foreign-key joins. JECB connects them to C_ID through join
// extension and makes the workload (nearly) completely partitionable,
// while intra-table designs cannot (the paper's Figure 7 gap against
// Horticulture).
package seats

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/horticulture"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Shape constants.
const (
	AirportCount            = 20
	AirlineCount            = 10
	FlightsPerAirline       = 10
	ReservationsPerCustomer = 3
)

// Schema returns the SEATS schema: reference tables (COUNTRY, AIRPORT,
// AIRLINE, FLIGHT) plus the customer-rooted CUSTOMER, FREQUENT_FLYER and
// RESERVATION tables.
func Schema() *schema.Schema {
	s := schema.New("seats")
	s.AddTable("COUNTRY", schema.Cols(
		"CO_ID", schema.Int, "CO_NAME", schema.String), "CO_ID")
	s.AddTable("AIRPORT", schema.Cols(
		"AP_ID", schema.Int, "AP_CODE", schema.String, "AP_CO_ID", schema.Int), "AP_ID")
	s.AddTable("AIRLINE", schema.Cols(
		"AL_ID", schema.Int, "AL_NAME", schema.String, "AL_CO_ID", schema.Int), "AL_ID")
	s.AddTable("FLIGHT", schema.Cols(
		"F_ID", schema.Int,
		"F_AL_ID", schema.Int,
		"F_DEPART_AP_ID", schema.Int,
		"F_ARRIVE_AP_ID", schema.Int,
		"F_SEATS_LEFT", schema.Int,
	), "F_ID")
	s.AddTable("CUSTOMER", schema.Cols(
		"C_ID", schema.Int,
		"C_BASE_AP_ID", schema.Int,
		"C_BALANCE", schema.Float,
	), "C_ID")
	s.AddTable("FREQUENT_FLYER", schema.Cols(
		"FF_C_ID", schema.Int,
		"FF_AL_ID", schema.Int,
		"FF_MILES", schema.Int,
	), "FF_C_ID", "FF_AL_ID")
	s.AddTable("RESERVATION", schema.Cols(
		"R_ID", schema.Int,
		"R_C_ID", schema.Int,
		"R_F_ID", schema.Int,
		"R_SEAT", schema.Int,
		"R_PRICE", schema.Float,
	), "R_ID")
	s.AddFK("AIRPORT", []string{"AP_CO_ID"}, "COUNTRY", []string{"CO_ID"})
	s.AddFK("AIRLINE", []string{"AL_CO_ID"}, "COUNTRY", []string{"CO_ID"})
	s.AddFK("FLIGHT", []string{"F_AL_ID"}, "AIRLINE", []string{"AL_ID"})
	s.AddFK("FLIGHT", []string{"F_DEPART_AP_ID"}, "AIRPORT", []string{"AP_ID"})
	s.AddFK("FLIGHT", []string{"F_ARRIVE_AP_ID"}, "AIRPORT", []string{"AP_ID"})
	s.AddFK("CUSTOMER", []string{"C_BASE_AP_ID"}, "AIRPORT", []string{"AP_ID"})
	s.AddFK("FREQUENT_FLYER", []string{"FF_C_ID"}, "CUSTOMER", []string{"C_ID"})
	s.AddFK("FREQUENT_FLYER", []string{"FF_AL_ID"}, "AIRLINE", []string{"AL_ID"})
	s.AddFK("RESERVATION", []string{"R_C_ID"}, "CUSTOMER", []string{"C_ID"})
	s.AddFK("RESERVATION", []string{"R_F_ID"}, "FLIGHT", []string{"F_ID"})
	return s.MustValidate()
}

func iv(n int64) value.Value   { return value.NewInt(n) }
func sv(s string) value.Value  { return value.NewString(s) }
func fv(f float64) value.Value { return value.NewFloat(f) }

// Generate builds a SEATS database with the given number of customers.
func Generate(customers int, seed int64) (*db.DB, error) {
	if customers <= 0 {
		return nil, fmt.Errorf("seats: customers = %d", customers)
	}
	rng := rand.New(rand.NewSource(seed))
	d := db.New(Schema())
	d.Table("COUNTRY").MustInsert(iv(0), sv("Freedonia"))
	for a := 0; a < AirportCount; a++ {
		d.Table("AIRPORT").MustInsert(iv(int64(a)), sv(fmt.Sprintf("AP%02d", a)), iv(0))
	}
	for al := 0; al < AirlineCount; al++ {
		d.Table("AIRLINE").MustInsert(iv(int64(al)), sv(fmt.Sprintf("AL%02d", al)), iv(0))
	}
	fid := int64(0)
	for al := 0; al < AirlineCount; al++ {
		for f := 0; f < FlightsPerAirline; f++ {
			dep := rng.Int63n(AirportCount)
			arr := dep
			for arr == dep {
				arr = rng.Int63n(AirportCount)
			}
			d.Table("FLIGHT").MustInsert(iv(fid), iv(int64(al)), iv(dep), iv(arr), iv(150))
			fid++
		}
	}
	rid := int64(0)
	for c := 0; c < customers; c++ {
		cid := int64(c)
		d.Table("CUSTOMER").MustInsert(iv(cid), iv(rng.Int63n(AirportCount)), fv(0))
		for ff := 0; ff < 1+rng.Intn(3); ff++ {
			al := rng.Int63n(AirlineCount)
			k := value.MakeKey(iv(cid), iv(al))
			if _, dup := d.Table("FREQUENT_FLYER").Get(k); !dup {
				d.Table("FREQUENT_FLYER").MustInsert(iv(cid), iv(al), iv(rng.Int63n(100000)))
			}
		}
		for r := 0; r < ReservationsPerCustomer; r++ {
			d.Table("RESERVATION").MustInsert(iv(rid), iv(cid), iv(rng.Int63n(fid)),
				iv(rng.Int63n(150)), fv(50+rng.Float64()*450))
			rid++
		}
	}
	return d, nil
}

var (
	findFlightsProc = sqlparse.MustProcedure("FindFlights",
		[]string{"depart_ap_id", "arrive_ap_id"}, `
		SELECT F_ID, F_AL_ID FROM FLIGHT
			WHERE F_DEPART_AP_ID = @depart_ap_id AND F_ARRIVE_AP_ID = @arrive_ap_id;
		SELECT AP_CODE FROM AIRPORT WHERE AP_ID = @depart_ap_id;
	`)
	findOpenSeatsProc = sqlparse.MustProcedure("FindOpenSeats",
		[]string{"f_id"}, `
		SELECT F_SEATS_LEFT FROM FLIGHT WHERE F_ID = @f_id;
	`)
	newReservationProc = sqlparse.MustProcedure("NewReservation",
		[]string{"r_id", "c_id", "f_id", "seat"}, `
		SELECT C_BALANCE FROM CUSTOMER WHERE C_ID = @c_id;
		SELECT F_SEATS_LEFT FROM FLIGHT WHERE F_ID = @f_id;
		INSERT INTO RESERVATION (R_ID, R_C_ID, R_F_ID, R_SEAT, R_PRICE)
			VALUES (@r_id, @c_id, @f_id, @seat, 100);
		UPDATE FREQUENT_FLYER SET FF_MILES = FF_MILES + 100 WHERE FF_C_ID = @c_id;
	`)
	updateCustomerProc = sqlparse.MustProcedure("UpdateCustomer",
		[]string{"c_id", "balance"}, `
		UPDATE CUSTOMER SET C_BALANCE = @balance WHERE C_ID = @c_id;
		UPDATE FREQUENT_FLYER SET FF_MILES = FF_MILES + 0 WHERE FF_C_ID = @c_id;
	`)
	updateReservationProc = sqlparse.MustProcedure("UpdateReservation",
		[]string{"r_id", "c_id", "seat"}, `
		SELECT C_BALANCE FROM CUSTOMER WHERE C_ID = @c_id;
		UPDATE RESERVATION SET R_SEAT = @seat WHERE R_ID = @r_id;
	`)
	deleteReservationProc = sqlparse.MustProcedure("DeleteReservation",
		[]string{"r_id", "c_id"}, `
		SELECT @f_id = R_F_ID FROM RESERVATION WHERE R_ID = @r_id;
		DELETE FROM RESERVATION WHERE R_ID = @r_id;
		UPDATE CUSTOMER SET C_BALANCE = C_BALANCE + 100 WHERE C_ID = @c_id;
		UPDATE FREQUENT_FLYER SET FF_MILES = FF_MILES - 100 WHERE FF_C_ID = @c_id;
	`)
)

type bench struct{}

// New returns the SEATS benchmark.
func New() workloads.Benchmark { return bench{} }

func (bench) Name() string      { return "seats" }
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
		{Proc: findFlightsProc, Weight: 0.10, Run: runFindFlights},
		{Proc: findOpenSeatsProc, Weight: 0.10, Run: runFindOpenSeats},
		{Proc: newReservationProc, Weight: 0.20, Run: runNewReservation},
		{Proc: updateCustomerProc, Weight: 0.10, Run: runUpdateCustomer},
		{Proc: updateReservationProc, Weight: 0.25, Run: runUpdateReservation},
		{Proc: deleteReservationProc, Weight: 0.25, Run: runDeleteReservation},
	}
}

// PublishedHorticulture returns the flight-centric design Horticulture's
// published SEATS solution uses (flights are its hot entity): FLIGHT by
// F_ID, RESERVATION by R_F_ID, CUSTOMER by C_ID, FREQUENT_FLYER by
// FF_C_ID. Customer-rooted transactions touching reservations then cross
// partitions, which is the Figure 7 gap.
func PublishedHorticulture(k int) (*partition.Solution, error) {
	return horticulture.FromColumns(Schema(), k, map[string]string{
		"FLIGHT":         "F_ID",
		"RESERVATION":    "R_F_ID",
		"CUSTOMER":       "C_ID",
		"FREQUENT_FLYER": "FF_C_ID",
	})
}

func customers(d *db.DB) int64 { return int64(d.Table("CUSTOMER").Len()) }
func flights(d *db.DB) int64   { return int64(d.Table("FLIGHT").Len()) }

func runFindFlights(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	dep := rng.Int63n(AirportCount)
	arr := rng.Int63n(AirportCount)
	col.Begin("FindFlights", map[string]value.Value{
		"depart_ap_id": iv(dep), "arrive_ap_id": iv(arr),
	})
	col.Read("AIRPORT", value.MakeKey(iv(dep)))
	ft := d.Table("FLIGHT")
	for _, row := range ft.LookupRows("F_DEPART_AP_ID", iv(dep)) {
		if row[3] == iv(arr) {
			col.Read("FLIGHT", ft.PKOf(row))
		}
	}
	col.Commit()
}

func runFindOpenSeats(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	f := rng.Int63n(flights(d))
	col.Begin("FindOpenSeats", map[string]value.Value{"f_id": iv(f)})
	col.Read("FLIGHT", value.MakeKey(iv(f)))
	col.Commit()
}

func runNewReservation(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	c := rng.Int63n(customers(d))
	f := rng.Int63n(flights(d))
	rid := rng.Int63()
	col.Begin("NewReservation", map[string]value.Value{
		"r_id": iv(rid), "c_id": iv(c), "f_id": iv(f), "seat": iv(rng.Int63n(150)),
	})
	col.Read("CUSTOMER", value.MakeKey(iv(c)))
	col.Read("FLIGHT", value.MakeKey(iv(f)))
	d.Table("RESERVATION").MustInsert(iv(rid), iv(c), iv(f), iv(rng.Int63n(150)), fv(100))
	col.Write("RESERVATION", value.MakeKey(iv(rid)))
	writeFrequentFlyer(d, col, c)
	col.Commit()
}

func runUpdateCustomer(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	c := rng.Int63n(customers(d))
	col.Begin("UpdateCustomer", map[string]value.Value{
		"c_id": iv(c), "balance": fv(rng.Float64() * 1000),
	})
	col.Write("CUSTOMER", value.MakeKey(iv(c)))
	writeFrequentFlyer(d, col, c)
	col.Commit()
}

// writeFrequentFlyer records a write of every frequent-flyer row of
// customer c.
func writeFrequentFlyer(d *db.DB, col *trace.Collector, c int64) {
	ff := d.Table("FREQUENT_FLYER")
	for _, row := range ff.LookupRows("FF_C_ID", iv(c)) {
		col.Write("FREQUENT_FLYER", ff.PKOf(row))
	}
}

// randomReservation picks one of a random customer's reservations,
// retrying a few customers if the first has none.
func randomReservation(d *db.DB, rng *rand.Rand) (value.Key, int64, bool) {
	rt := d.Table("RESERVATION")
	for attempt := 0; attempt < 8; attempt++ {
		c := rng.Int63n(customers(d))
		if rows := rt.LookupRows("R_C_ID", iv(c)); len(rows) > 0 {
			return rt.PKOf(rows[rng.Intn(len(rows))]), c, true
		}
	}
	return "", 0, false
}

func runUpdateReservation(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	k, c, ok := randomReservation(d, rng)
	if !ok {
		runUpdateCustomer(d, col, rng)
		return
	}
	col.Begin("UpdateReservation", map[string]value.Value{
		"r_id": iv(0), "c_id": iv(c), "seat": iv(rng.Int63n(150)),
	})
	col.Read("CUSTOMER", value.MakeKey(iv(c)))
	col.Write("RESERVATION", k)
	col.Commit()
}

func runDeleteReservation(d *db.DB, col *trace.Collector, rng *rand.Rand) {
	k, c, ok := randomReservation(d, rng)
	if !ok {
		runUpdateCustomer(d, col, rng)
		return
	}
	col.Begin("DeleteReservation", map[string]value.Value{"r_id": iv(0), "c_id": iv(c)})
	col.Read("RESERVATION", k)
	col.Write("RESERVATION", k)
	d.Table("RESERVATION").Delete(k)
	col.Write("CUSTOMER", value.MakeKey(iv(c)))
	writeFrequentFlyer(d, col, c)
	col.Commit()
}
