package main

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"strings"
	"testing"
)

// caseLine matches the per-case progress lines; wallClock matches the
// one field in them that is not deterministic.
var (
	caseLine  = regexp.MustCompile(`(?m)^.* \(\d+ plots\).*$\n?`)
	wallClock = regexp.MustCompile(` in +\S+ \(`)
)

// sections splits a run's stdout into blank-line-separated sections and
// maps each section's SHA-256 to its first line (for failure messages).
// Each per-case line is hashed on its own with its wall clock masked,
// and the section around it is hashed without it.
func sections(out string) map[string]string {
	got := map[string]string{}
	add := func(s string) {
		sum := sha256.Sum256([]byte(s))
		title, _, _ := strings.Cut(s, "\n")
		got[hex.EncodeToString(sum[:])] = title
	}
	for _, line := range caseLine.FindAllString(out, -1) {
		add(wallClock.ReplaceAllString(strings.TrimSuffix(line, "\n"), " in - ("))
	}
	for _, sec := range strings.Split(out, "\n\n") {
		if sec = strings.Trim(caseLine.ReplaceAllString(sec, ""), "\n"); sec != "" {
			add(sec)
		}
	}
	return got
}

// TestCLIOutputPinned pins the sweep CLI's reports section by section.
// The parent digests were recorded before the Sweep* expanders and the
// hand-nested grouping became one Axis cross-product; every one of them
// must still print. The added digests are the comparison tables the old
// grouping silently dropped from composed sweeps (a nested member name
// never matched the hand-built key). The line digests pin the per-case
// lines, link summary included, as printed when every case's rows were
// still reduced from its retained ledger. Nothing else may appear.
func TestCLIOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		lines  []string
		parent []string
		added  []string
	}{
		{
			name: "storage sweep",
			args: []string{"-quick", "-filter", "case4_div8", "-storage", "gpfs,bb,bb+gpfs", "-bbcap", "2e7", "-parallel", "2"},
			lines: []string{
				"caafc45ba4ea2df17201f47bb2f8962fe9182c877467ce37f662040747f8c153", // case4_div8_gpfs per-case line
				"b237a891e0bcbd65aed07558d7957753b13b00f3f4270b7ed136c2b85a2c9229", // case4_div8_bb per-case line
				"e910b97ce30741c73ba0d267ba192b5238365e927ef901ef36622e347824289a", // case4_div8_bb+gpfs per-case line
			},
			parent: []string{
				"1ead91cf9eb2cf9de0c9ceea7def9e1abcdbe1af05c99c127bfcadccf6a0b6c4", // case4_div8 storage-tier comparison
				"bf88696dedf68107a64331c8b4d87d30aee219ba28358f7ee58db34875b9ac50", // Table III
			},
		},
		{
			name: "aggregation sweep",
			args: []string{"-quick", "-filter", "case10", "-topology", "-aggregation", "direct,2/node,1/node"},
			lines: []string{
				"11c47e458241d33a060d34c7bb35f3894be3fdfcad47036a68104ec93e8adba8", // case10_div8_direct per-case line
				"24ddd00e9234a5824844562015b5e049f3a855af08d38902556d58ec7294fd86", // case10_div8_2per-node per-case line
				"83fc40bcac9b4581f7cebcbd7f42472aff705505933f1ffd8418fb2cb5ad11a7", // case10_div8_1per-node per-case line
			},
			parent: []string{
				"adeb24ef73d959563fc7f264627a56cf3b2af545b58aadfad29b52a9893fe5f4", // case10_div8_direct link report
				"d264b68dbeece689a701168606e268c7379a5647824511ee3b89dc7c9a0572e1", // case10_div8_2per-node link report
				"9f9528003f4c741f5bb410ef96109e0c6b38d224373fe459b59288ca84fe0129", // case10_div8_1per-node link report
				"84ca029ac867c6dd42b8d68b810e8fe1480b29d7e2a32f00f5453c636713b691", // case10_div8 aggregation comparison
				"006a27b215dd923be09dace9e100febbdc5e0f9482688e0950ec70ffcedf4e65", // Table III
			},
		},
		{
			name: "fault plan",
			args: []string{"-quick", "-filter", "case10", "-topology", "-storage", "bb+gpfs", "-faults",
				`{"events":[{"kind":"target-outage","start":0.05,"end":1,"target":0},{"kind":"rank-interrupt","start":2,"rank":1}],"mtbf_seconds":20,"seed":7}`},
			lines: []string{
				"0e985d7d0fad470e33e90ad773e68e4e2a57e94f507b8da9b570c55ddb599087", // case10_div8_bb+gpfs per-case line
			},
			parent: []string{
				"b8b768bf019b4f82efbe0cfb12a50b70dd511a4867214bc4245edfef9dedb982", // case10_div8_bb+gpfs link report
				"c9a8ee604d232460fb143e21088e8ac279a414855d45396a122436224bc7bc25", // case10_div8 storage-tier comparison
				"1bac3f2511e1b544ea953d6f75100d5770bed2dc54765da1aac84f7245f14327", // resilience under injected faults
				"454b14ff2f523ecc23d359118341f2b09605c18c5f7d4796adf46c23569c6661", // Table III
			},
		},
		{
			name: "mitigated fault plan",
			args: []string{"-quick", "-filter", "case10", "-topology", "-storage", "bb+gpfs",
				"-faults", "../../examples/faultplans/target-outage.json", "-mitigate", "default"},
			lines: []string{
				"c2849a1d9c700c3f624736ef5b7a47fa9f69ae74190e59185a5a74a5e41015dd", // case10_div8_bb+gpfs_nomitigate per-case line
				"238c760eecbc1d497f8e5e96885b02248172f5c193a003cbebbba8525667cf8e", // case10_div8_bb+gpfs_mitigate per-case line
			},
			parent: []string{
				"3dd8a6c6d73740ef81e6219a617d9a227822ae1f766e3628ae898140e8504489", // case10_div8_bb+gpfs_nomitigate link report
				"b823aecc1285ddcc5f911b536995ddb4796e4274b4cd3a43d33fddc90f3fcf41", // case10_div8_bb+gpfs_mitigate link report
				"e11aa2e40a4a710a171b7c182cc10101a4fd15e458fa1b32a8304104f8f8254e", // resilience under injected faults
				"de3140665eda9cb782866fb2eebeb09196264cbe48c12e5dd3fb1f6160d13e51", // mitigation comparison
				"959e318b4f51bac4e94a8d77f6c57dec44671d0f14efe9c4d9ad3a85bd120010", // Table III
			},
			added: []string{
				"54cb19600f897241d6530ad5ae8e95ae5f669599ea06078ed582ac1e4609373a", // case10_div8_nomitigate storage-tier comparison
				"376f07a64e213b43967aad028d2db2a1bf94f9869a186128785d5b5c33998f23", // case10_div8_mitigate storage-tier comparison
			},
		},
		{
			name: "dist sweep",
			args: []string{"-quick", "-filter", "case10", "-topology", "-dist", "roundrobin,knapsack,sfc"},
			lines: []string{
				"dff2198f7d3f5fff0a4d2217801770fb06421e20056160da9dd2523c99b86673", // case10_div8_roundrobin per-case line
				"48c10f0f62600a15addff6b06f4871875e7755c99f1bffb773bc976a89a4f15e", // case10_div8_knapsack per-case line
				"0361371417aa9393d56ba3eaf9d365e0f7a8b37374abec8cb21ca7392bc12d77", // case10_div8_sfc per-case line
			},
			parent: []string{
				"78880e633af98034753e795cca412a903b69627977074520fa046783ec6ef9d8", // case10_div8_roundrobin link report
				"45d8f1632b105db91cd5c2430c3968fbe05b3946d9e34065b2f311fab9d7490e", // case10_div8_knapsack link report
				"0b318b25882ddcb00ec4ed46048e6ab40ce7f80a0d703474c3f4537e06608d5e", // case10_div8_sfc link report
				"7e72087d4b8fc66430b7fb72120f02a16c498ebb6281e6b5713727c1af55daf7", // case10_div8 distribution-mapping comparison
				"58cdcdcc9634b6ac4d3057660bdf4a65ac12a20fcbcee9b3ca9dd6b9e97ed591", // Table III
			},
		},
		{
			name: "dist x storage sweep",
			args: []string{"-quick", "-filter", "case10", "-topology", "-dist", "roundrobin,sfc", "-storage", "gpfs,bb"},
			lines: []string{
				"10f9846921c64f152b693b565ff95fb066e358f53ec7d46a03640adfdc7f8c40", // case10_div8_roundrobin_gpfs per-case line
				"87058f8e8e89a3aab1bf0e3edfb72611b56248401721894685b87ccb9d0b7cfd", // case10_div8_roundrobin_bb per-case line
				"4b200c6ecd574a7dc43d27a468873a0e5e8b18e4abf602dc9d60970005d205e5", // case10_div8_sfc_gpfs per-case line
				"71fdf85441f26920c15829575282b56a7315b0e4220d8353d3e35cce4a4594cf", // case10_div8_sfc_bb per-case line
			},
			parent: []string{
				"10bbe3a5c879f49302f80020f3842cd7f7294489e0d3a1d3ec859f56dda89dd5", // case10_div8_roundrobin_gpfs link report
				"fa6694b9200241e4ef430223f91d2e6f2dfbf193fceecf213ceae61a426b613a", // case10_div8_roundrobin_bb link report
				"f4d4148cee3864ea3e3e9291160007e299354589d01e4470c5d9b855b0349d18", // case10_div8_sfc_gpfs link report
				"bed259e101610d3dbe8c85d5368064fae7f82cfee639ecf90faab16afcde0b2e", // case10_div8_sfc_bb link report
				"9924bb1aaf51c6e80d217e364dff50d545ad152b5dbd024c463c0677c8c13f67", // case10_div8_roundrobin storage-tier comparison
				"c25f85f06f0896824f5bb4a158ba55835eedd4ff379a38b87385aebc992b432c", // case10_div8_sfc storage-tier comparison
				"b46d0b8e065bb5af52e897b6638b5c60ddb468783faa4b7cab25fcb94d1b3b00", // Table III
			},
			added: []string{
				"71820124bb5b03cf49b2bea42bd9b9229dc7119948426bfbac71d9e398b0b13e", // case10_div8_gpfs distribution-mapping comparison
				"96012b873adf022529ebff025e619697b4539e81ce9846d5c7b930fe774aa3e2", // case10_div8_bb distribution-mapping comparison
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			got := sections(out.String())
			want := map[string]bool{}
			for _, d := range append(append(append([]string{}, tc.lines...), tc.parent...), tc.added...) {
				want[d] = true
				if _, ok := got[d]; !ok {
					t.Errorf("section %s… no longer printed", d[:12])
				}
			}
			for d, title := range got {
				if !want[d] {
					t.Errorf("unpinned section %s %q", d, title)
				}
			}
			if t.Failed() {
				t.Logf("output:\n%s", out.String())
			}
		})
	}
}

// TestRunRejectsBadSweepSpecs: an unknown storage stack, fault kind,
// policy field or aggregation spec fails the run before any case runs,
// so nothing reaches stdout.
func TestRunRejectsBadSweepSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown storage", []string{"-filter", "case4_div8", "-storage", "lustre"}},
		{"unknown fault kind", []string{"-filter", "case10", "-faults", `{"events":[{"kind":"bogus","start":0}]}`}},
		{"unknown policy field", []string{"-filter", "case10", "-mitigate", `{"bogus":true}`}},
		{"unknown aggregation", []string{"-filter", "case10", "-aggregation", "bogus"}},
		{"zero aggregators", []string{"-filter", "case10", "-aggregation", "0/node"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(append([]string{"-quick"}, tc.args...), &out); err == nil {
				t.Error("accepted")
			}
			if out.Len() != 0 {
				t.Errorf("ran and printed\n%s", out.String())
			}
		})
	}
}
