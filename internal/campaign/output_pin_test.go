package campaign_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/resilience"
)

// Output-sequence pin: both engines' output loops (shed → remap → burst
// → observe → advance clocks → adaptive checkpoint) run through
// campaign.Run over a small matrix of hierarchies × I/O stacks, and
// every observable the sequence produces is hashed against digests
// recorded before the loop was consolidated into internal/driver. A
// refactor of that loop must leave all of them unchanged.

var pinBases = []campaign.Case{
	{Name: "hydro32-l1", NCell: 32, MaxLevel: 1, MaxStep: 12, PlotInt: 3,
		CFL: 0.5, NProcs: 4, Nodes: 2, Engine: campaign.EngineHydro},
	{Name: "surr512-l0", NCell: 512, MaxLevel: 0, MaxStep: 24, PlotInt: 2,
		CFL: 0.5, NProcs: 32, Nodes: 8, Engine: campaign.EngineSurrogate},
	{Name: "surr512-l2", NCell: 512, MaxLevel: 2, MaxStep: 24, PlotInt: 2,
		CFL: 0.5, NProcs: 32, Nodes: 8, Engine: campaign.EngineSurrogate},
}

var pinVariants = []struct {
	name string
	topo bool
	mut  func(*campaign.Case)
}{
	{"plain", false, func(*campaign.Case) {}},
	{"remap-agg", true, func(c *campaign.Case) {
		c.Remap = true
		c.Aggregation = &iosim.AggregationSpec{Aggregators: "1/node", Layout: iosim.LayoutSIF, Async: true}
	}},
	{"faults-mitigate", true, func(c *campaign.Case) {
		c.Faults = faults.DefaultPlan()
		c.Mitigate = resilience.DefaultPolicy()
		c.ComputeSeconds = 0.25
	}},
	// A hair-trigger shed threshold, so degraded-mode output sheds plots.
	{"faults-shed", true, func(c *campaign.Case) {
		c.Faults = faults.DefaultPlan()
		c.Mitigate = resilience.DefaultPolicy()
		c.Mitigate.ShedPressure = 0.01
	}},
}

// pinDigests are the SHA-256 digests of each observable's JSON encoding,
// keyed "<base>/<variant>/<observable>".
var pinDigests = map[string]string{
	"hydro32-l1/plain/plot-records":                 "55f50136108697b560124b8db683ab5f55c0854e696fec15aaff3ecbd1e936e3",
	"hydro32-l1/plain/checkpoint-records":           "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"hydro32-l1/plain/burst-stats":                  "9c141d35219c75231f4f4903e28d1e0d5de57a0b6b4579d2d68fc8af292f5760",
	"hydro32-l1/plain/profile":                      "5af88b9f0ebcb3dffe801156dc30bbe505d539c8688b614d925e476bdd9b0c91",
	"hydro32-l1/plain/mitigation":                   "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"hydro32-l1/plain/sim-time":                     "dc1ca370d1edbe95de8975557a2d7f35a8971422329500b4d6d8d0637422ea78",
	"hydro32-l1/remap-agg/plot-records":             "55f50136108697b560124b8db683ab5f55c0854e696fec15aaff3ecbd1e936e3",
	"hydro32-l1/remap-agg/checkpoint-records":       "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"hydro32-l1/remap-agg/burst-stats":              "5e7d2207de5fd3fdff1e9c33b99f9c9f0d128ea92e579d76d514007d82645f92",
	"hydro32-l1/remap-agg/profile":                  "5291b6b9deee02b05089e5f80b4deda83a873eb042250ae709fc18f20bb64184",
	"hydro32-l1/remap-agg/mitigation":               "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"hydro32-l1/remap-agg/sim-time":                 "dc1ca370d1edbe95de8975557a2d7f35a8971422329500b4d6d8d0637422ea78",
	"hydro32-l1/faults-mitigate/plot-records":       "55f50136108697b560124b8db683ab5f55c0854e696fec15aaff3ecbd1e936e3",
	"hydro32-l1/faults-mitigate/checkpoint-records": "4f32220107e3813ed543194b4b9fbd9e893d42f3f7c6317a95324288f2d35045",
	"hydro32-l1/faults-mitigate/burst-stats":        "66668eed6740cf0dc9766e1616ade29807bcd51baefa791c5bba8b6424b72fb8",
	"hydro32-l1/faults-mitigate/profile":            "c33377130dccaab1d58957ac10486d142168aadcde2618273563269b2b9c9b72",
	"hydro32-l1/faults-mitigate/mitigation":         "bc7736e845f51c6cf1020e0b9de3a2e7a1bf0ca266e22442ab46881b43d116e2",
	"hydro32-l1/faults-mitigate/sim-time":           "dc1ca370d1edbe95de8975557a2d7f35a8971422329500b4d6d8d0637422ea78",
	"hydro32-l1/faults-shed/plot-records":           "5bb19741cd23cf6c01da2a19fce3a02bede454c536703ed3b33209aa87ec0f6a",
	"hydro32-l1/faults-shed/checkpoint-records":     "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"hydro32-l1/faults-shed/burst-stats":            "93b16d2904b11725ff055eb64af48858569e89ad124a19f2f33fc0761cf4b761",
	"hydro32-l1/faults-shed/profile":                "783c5fc199f9b7d64786375fa214b0b39b4efa9471574e987a8bb879b006fe8c",
	"hydro32-l1/faults-shed/mitigation":             "2f22791da1458efc51fe00c94932214ad5542857f56714a4308971d5892ba46e",
	"hydro32-l1/faults-shed/sim-time":               "dc1ca370d1edbe95de8975557a2d7f35a8971422329500b4d6d8d0637422ea78",
	"surr512-l0/plain/plot-records":                 "0be633ab61942581a71eb88bdb7f63b404d2bd0e113b796636340a88f64fc7b7",
	"surr512-l0/plain/checkpoint-records":           "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l0/plain/burst-stats":                  "f0956510fed14b46d8a403f5906bc95bd887283969edb5cf771714b897c69faa",
	"surr512-l0/plain/profile":                      "fe250e297c5f182e93d2ed87177f34fe51d442a7639bc2f69c09b41c7f22732f",
	"surr512-l0/plain/mitigation":                   "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l0/plain/sim-time":                     "7c5f4a6c4e091bc149bf25460b3ddac9e509703f410994e83be2cb93f5835ba3",
	"surr512-l0/remap-agg/plot-records":             "0be633ab61942581a71eb88bdb7f63b404d2bd0e113b796636340a88f64fc7b7",
	"surr512-l0/remap-agg/checkpoint-records":       "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l0/remap-agg/burst-stats":              "5288a2d9520cdc4836f2f842a96d83086ddd2093c79861b7da7c06f5b199a8fe",
	"surr512-l0/remap-agg/profile":                  "4c4323e710230934f2520fe874aa9d5035642b9e787d3b31f2cc94c0ceea0f98",
	"surr512-l0/remap-agg/mitigation":               "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l0/remap-agg/sim-time":                 "7c5f4a6c4e091bc149bf25460b3ddac9e509703f410994e83be2cb93f5835ba3",
	"surr512-l0/faults-mitigate/plot-records":       "0be633ab61942581a71eb88bdb7f63b404d2bd0e113b796636340a88f64fc7b7",
	"surr512-l0/faults-mitigate/checkpoint-records": "fec4383f49fda2b6e7d85380e17fc51d891933d815599bf9d217e411850974cf",
	"surr512-l0/faults-mitigate/burst-stats":        "2c35367780e7bc119f97551d076b6e041a867c71c5e8d9a878732603bd8239a4",
	"surr512-l0/faults-mitigate/profile":            "b5b6c375078deb0f3e539c17b400fa4a68512b65694edd65767d1383f474cae4",
	"surr512-l0/faults-mitigate/mitigation":         "cf6d8c5766c2e5020317d0789b7479f7167010b180811f6603e5450f8f572dac",
	"surr512-l0/faults-mitigate/sim-time":           "7c5f4a6c4e091bc149bf25460b3ddac9e509703f410994e83be2cb93f5835ba3",
	"surr512-l0/faults-shed/plot-records":           "b217ebec99614a20f9cb8973f3f76f3b57e4148920ad125e3ec0de7a0d08f11d",
	"surr512-l0/faults-shed/checkpoint-records":     "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l0/faults-shed/burst-stats":            "b16ecaad52e927f21f30ce329e3ee36c5455b05a57a95ce6646929860bbd53d4",
	"surr512-l0/faults-shed/profile":                "cab728cf1ca66bbaa7e4c5c644b7e28095d812bcfb6e22d29d18026418caca35",
	"surr512-l0/faults-shed/mitigation":             "3b487fbd58c8701021d24d4fc2f352e5bb47be2b40b9a920067e9a7672882fdb",
	"surr512-l0/faults-shed/sim-time":               "7c5f4a6c4e091bc149bf25460b3ddac9e509703f410994e83be2cb93f5835ba3",
	"surr512-l2/plain/plot-records":                 "de3703ede69f45b8486425251583c2c8ad98ae2086c5e075fe0fa49121c16e01",
	"surr512-l2/plain/checkpoint-records":           "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l2/plain/burst-stats":                  "a8ba15d538f7be91aebe2bf5b2cf71d0578bdd8106cfa0a2b0e154ca460797b7",
	"surr512-l2/plain/profile":                      "3bd06c99b454446757ecb0fa5e432161fd3740ee8442bb3e169cd55d14615663",
	"surr512-l2/plain/mitigation":                   "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l2/plain/sim-time":                     "d3d10ba355da3b57a749e9987ceae4cb1be8ae13fa7338c329fa2c5f8d105375",
	"surr512-l2/remap-agg/plot-records":             "de3703ede69f45b8486425251583c2c8ad98ae2086c5e075fe0fa49121c16e01",
	"surr512-l2/remap-agg/checkpoint-records":       "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l2/remap-agg/burst-stats":              "a8a9edd2a648d52924abb90ec4b27b673b71519a06169d2c9e33391f3eca2677",
	"surr512-l2/remap-agg/profile":                  "0e831f1927acbcaadc43c95a8881ca4b07f0af2bb709b741c8a8c260c5be791f",
	"surr512-l2/remap-agg/mitigation":               "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l2/remap-agg/sim-time":                 "d3d10ba355da3b57a749e9987ceae4cb1be8ae13fa7338c329fa2c5f8d105375",
	"surr512-l2/faults-mitigate/plot-records":       "de3703ede69f45b8486425251583c2c8ad98ae2086c5e075fe0fa49121c16e01",
	"surr512-l2/faults-mitigate/checkpoint-records": "4bbf4a426edd0b5a916a6e22128a07e836c1db3d6fab63444503e8eec327a7be",
	"surr512-l2/faults-mitigate/burst-stats":        "70e1ad4a60bcb547eb88f066c741caf16a7d268a85931989f94889a514011195",
	"surr512-l2/faults-mitigate/profile":            "70033418ffcf7f9e786ec3ff736c6a9e6a183b1188a330d828a320c52be74998",
	"surr512-l2/faults-mitigate/mitigation":         "3ec462ed1f64145c697e7245ec1ad42900a8ecfab0d6bcaaf72afe247e7ea318",
	"surr512-l2/faults-mitigate/sim-time":           "d3d10ba355da3b57a749e9987ceae4cb1be8ae13fa7338c329fa2c5f8d105375",
	"surr512-l2/faults-shed/plot-records":           "8f5c4acfeba82507b13904b372a6bfaaa3d3b2d83e4a1f408fc5a17fec453414",
	"surr512-l2/faults-shed/checkpoint-records":     "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"surr512-l2/faults-shed/burst-stats":            "644e0a6278e0abafa1362d8cefaad261f1c5b037ebf22fd41c0ea668d14388d6",
	"surr512-l2/faults-shed/profile":                "1ff8dd0f7c034c2e30c4be3cdcc66c08c646bd4aaf02ec99721fd3af470bdf9f",
	"surr512-l2/faults-shed/mitigation":             "6e6aac4af762b753bb91fa02b1cd764658491dbf548dc5f6f7179396b50d5633",
	"surr512-l2/faults-shed/sim-time":               "d3d10ba355da3b57a749e9987ceae4cb1be8ae13fa7338c329fa2c5f8d105375",
}

func digest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestOutputSequencePinned(t *testing.T) {
	var got []string
	for _, base := range pinBases {
		for _, v := range pinVariants {
			c := base
			v.mut(&c)
			fs := iosim.New(c.FSConfig(v.topo), "")
			res, err := campaign.Run(c, fs)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.Name, v.name, err)
			}
			ledger := fs.Ledger()
			var checkpoints []iosim.WriteRecord
			for _, r := range ledger {
				if strings.HasPrefix(r.Path, c.Inputs().CheckFile) {
					checkpoints = append(checkpoints, r)
				}
			}
			for _, o := range []struct {
				name string
				v    any
			}{
				{"plot-records", res.Records},
				{"checkpoint-records", checkpoints},
				{"burst-stats", iosim.Fold(ledger).Bursts()},
				{"profile", iosim.Fold(ledger).Profile()},
				{"mitigation", res.Mitigation},
				{"sim-time", res.SimTime},
			} {
				key := base.Name + "/" + v.name + "/" + o.name
				d := digest(t, o.v)
				got = append(got, fmt.Sprintf("%q: %q,", key, d))
				if want := pinDigests[key]; d != want {
					t.Errorf("%s: digest %s, want %s", key, d, want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", strings.Join(got, "\n"))
	}
}
