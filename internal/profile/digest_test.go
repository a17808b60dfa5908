package profile_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"scaf/internal/bench"
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/mcgen"
	"scaf/internal/profile"
)

// TestProfileDigest pins every profiler's output, byte for byte, over the
// 16 suite programs, 60 generated ones and one written for the test: each
// program's profile (Collect's, plus CollectMemDep's dependences) is
// rendered as sorted lines with stable names and hashed, and the hash
// must equal the literal below. A change to how the profilers record
// must leave every literal as it is; a change to what they record
// regenerates the table and says why.
func TestProfileDigest(t *testing.T) {
	for _, p := range digestPrograms() {
		mod, err := lower.Compile(p.name, p.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.name, err)
		}
		prog := cfg.NewProgram(mod)
		d, err := profile.Collect(prog, interp.Options{})
		if err != nil {
			t.Fatalf("%s: collect: %v", p.name, err)
		}
		// The dependences come from a run of their own; the literals,
		// computed when one run recorded every profile, prove that the
		// second run records the same ones.
		dep, err := profile.CollectMemDep(prog, interp.Options{})
		if err != nil {
			t.Fatalf("%s: collect memdep: %v", p.name, err)
		}
		if got, want := profileDigest(d, dep), digestWant[p.name]; got != want {
			t.Errorf("%s: profile digest %s, want %s", p.name, got, want)
		}
	}
}

type digestProgram struct{ name, src string }

func digestPrograms() []digestProgram {
	var out []digestProgram
	for name, src := range bench.Sources {
		out = append(out, digestProgram{name, src})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for seed := int64(1); seed <= 60; seed++ {
		out = append(out, digestProgram{fmt.Sprintf("mcgen-%d", seed), mcgen.New(seed).Program()})
	}
	return append(out, digestProgram{"repeat-reads", repeatReads})
}

// repeatReads covers what the other programs leave out: accesses three
// calls deep, so every context suffix length is recorded, and two reads
// of one word in a loop-free callee, whose second read repeats the
// first's loop tags and is followed by a write in the same iteration.
const repeatReads = `
int data[16];
int total;

int peek(int* p, int k) {
    int a = p[k];
    int b = p[k];
    return a + b;
}

int mid(int* p, int k) { return peek(p, k) + 1; }

int outer(int* p, int k) { return mid(p, k) * 2; }

void main() {
    int* heap = malloc(int, 16);
    for (int i = 0; i < 40; i++) {
        int k = i % 16;
        total = total + outer(data, k) + outer(heap, k);
        data[k] = total;
        heap[k] = i;
    }
    print(total);
}
`

// profileDigest renders d and dep as sorted lines and returns their
// SHA-256.
func profileDigest(d *profile.Data, dep *profile.MemDepProfile) string {
	var lines []string
	add := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	add("steps %d", d.Steps)
	for i, o := range d.Output {
		add("output %d %q", i, o)
	}
	for b, n := range d.Edge.BlockCount {
		add("block %s %d", blockName(b), n)
	}
	for e, n := range d.Edge.EdgeCount {
		add("edge %s %s %d", blockName(e.From), blockName(e.To), n)
	}
	for l, st := range d.LoopStats {
		add("loopstat %s %s inv=%d hdr=%d w=%d", l.Name(), st.Loop.Name(), st.Invocations, st.HeaderExecs, st.Weight)
	}
	for in, s := range profile.ValueStats(d.Value) {
		add("value %s n=%d v=%d inv=%t", instrName(in), s.Count, s.Value, s.Invariant)
	}
	sets, counts := profile.PointsToSets(d.PointsTo)
	for v, set := range sets {
		for s := range set {
			add("pts %s %s", valueName(v), siteName(s))
		}
	}
	for v, n := range counts {
		add("pts-count %s %d", valueName(v), n)
	}
	for _, cs := range profile.PointsToCtxSets(d.PointsTo) {
		for s := range cs.Sites {
			add("pts-ctx %s %016x %s", valueName(cs.V), cs.Ctx, siteName(s))
		}
	}
	masks, rcounts := profile.ResidueMasks(d.Residue)
	for v, m := range masks {
		add("residue %s %#04x", valueName(v), m)
	}
	for v, n := range rcounts {
		add("residue-count %s %d", valueName(v), n)
	}
	roAccessed, roWritten, slAllocated, slViolated := profile.LifetimeSets(d.Lifetime)
	for name, set := range map[string]map[profile.LoopSite]bool{
		"ro-accessed": roAccessed, "ro-written": roWritten,
		"sl-allocated": slAllocated, "sl-violated": slViolated,
	} {
		for k, ok := range set {
			add("%s %s %s %t", name, k.Loop.Name(), siteName(k.Site), ok)
		}
	}
	for k, n := range dep.Deps() {
		add("memdep %s %s %s %s cross=%t %d", k.Loop.Name(), instrName(k.Src), instrName(k.Dst), k.Kind, k.Cross, n)
	}
	sort.Strings(lines)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
}

func blockName(b *ir.Block) string { return fmt.Sprintf("%s.b%d", b.Fn.Name, b.Index) }

func instrName(in *ir.Instr) string {
	if in == nil {
		return "-"
	}
	return fmt.Sprintf("%s#%d", in.Blk.Fn.Name, in.ID)
}

func valueName(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return instrName(x)
	case *ir.Param:
		return fmt.Sprintf("%s%%p%d", x.Fn.Name, x.Idx)
	case *ir.Global:
		return "@" + x.GName
	}
	return fmt.Sprintf("%T(%v)", v, v)
}

func siteName(s profile.Site) string {
	if s.G != nil {
		return "@" + s.G.GName
	}
	return instrName(s.In)
}

// digestWant holds each program's digest, computed before the profilers
// learned to record per tracker change and per instruction.
var digestWant = map[string]string{
	"052.alvinn":     "b90d814a33fddd9e7877a013894f02f9b6260dbbea024f2eb71124d1b2787fda",
	"056.ear":        "1bcc5c7b3fa143204ec36df0a290b937459663b728aa99a0c7916d9704472077",
	"129.compress":   "1bea979a2439613655a010174edde8d740985a92a00a799d0f7372b85b6d7c65",
	"164.gzip":       "444044e8a89f087917e4692452689004c1822dd769c96a8c0ff12a9d7c398702",
	"175.vpr":        "c4850e24f46296ecbb052fbe36753751333350179f4d9e1547c8cbef1a208da4",
	"179.art":        "ac04d4766b7a51e9a8904eb8daf3965dcc15fb452c651216f580b23e3c830bf8",
	"181.mcf":        "0fe760842b113d56d13aab94501730654ae605c232ba506329db69e185458455",
	"183.equake":     "b56743d349bb0afaed9b7762ec43f1e98060b92e50ab0c3d88ca2ea3ccb46d69",
	"429.mcf":        "b63a84e52896bc644333bf7ce72e45ee85d8e5b7f7dd3aa74f113f36301a5e5f",
	"456.hmmer":      "1ec3dc356ede7a5536b193e6144b95fbccb8a42b40dc81f166c2ffe50307a82d",
	"462.libquantum": "6b2be4fb08e3c443419052aabcd1035aa902a1a8cbeaab63430d4f05cf74448e",
	"470.lbm":        "1ebe2ed36282eed5489c48eba012c71fb71408c8410acd9d3e1aad06642a2c7c",
	"482.sphinx3":    "d87ce3ed836f9051ef586a15f07124a9ba7b790bd53c53587c438750624ad457",
	"519.lbm":        "a2326210f5d05fdf2ded67a9b57f9fe489d95f2eb2881e2900bb77e9b0883a7a",
	"525.x264":       "5bd9024d60f251a5e67d18691ceb3c1e202f78e65cd8b6c0cd4bb0aff164fdfc",
	"544.nab":        "fc73ba4d79ac5e2f907d7663c56aba3bf259d91e049135a1b8f340e847d806cd",
	"mcgen-1":        "4574c81e8977daab1750983dc09812a0cb576de0445b31c54a9647570d8b18cf",
	"mcgen-2":        "f3f9faa0196c0e3f5560ed43c31f61c4b1835e165b16b395e28bd5878b77d706",
	"mcgen-3":        "33b04864bd8c3c29bd63751a0987f7288918362e1aa8712cfd7e429ede8a1d6c",
	"mcgen-4":        "19a0cfb888ea7d2cec5bbad728fa6f32f301a5208b5face30623457741d988fb",
	"mcgen-5":        "b2b05d9e3ed039195ce101e906bc4db36d30f5f04fffebcfc461e3cbe0383aa7",
	"mcgen-6":        "ee9efb2fbdecb76e061f57e1c35e83bb430d36424ea4160cbcb25143e0b5ef87",
	"mcgen-7":        "496279a16644e60e9b619d2deb66a9c422c017e8d5643d485a30a163e2972acd",
	"mcgen-8":        "2d1e7693561b444e3ea9eef0b7be1228155d4b48912f87566fa50f5de58b556e",
	"mcgen-9":        "02d0e8846747dcb04e123b27cd95cca416a3a8f75a12753df9876a4545e81358",
	"mcgen-10":       "cce2858d80ac51ccf2a2ae91570a5adcdfaf0849cfafa90a5164c4b3c6d0e89c",
	"mcgen-11":       "b9e1ccb358f4ab72fcb9c30709ad57449f1c02fa60bc887c7e437df6f5aa13d7",
	"mcgen-12":       "99a33caac637fc8112be6e5415aae691a102dd78af8d5a7a8d5966e832d09d55",
	"mcgen-13":       "1a68bfde32defc04b9b83501b17c0b12c10947b1ab66a77e8fe6967ab4522b62",
	"mcgen-14":       "61aa36b5724928e85f30a37d807add8713db1b554469aec55b1ec7cf58cab281",
	"mcgen-15":       "56e748ba5b57ad40c3b09c68839f964b0ab58bbd55709ee79324976f54a90a51",
	"mcgen-16":       "a5ce7485b0585c052783b1dfec75b244703c708d70092f5770a7bb26bfa35264",
	"mcgen-17":       "06d6563c3a8eed395f9f9d98e3bbc54219944e690ef4ac2a86a26c5e5cc80460",
	"mcgen-18":       "9f92e2b9e990adfe6b4bc111e13c9e35fb9acd8e49b7fc5442463f487c1d8fcd",
	"mcgen-19":       "793308add5dbe1b72704fa89951051b2f3731772d81bce50b0c6c7fd7a98242c",
	"mcgen-20":       "86a5bb7dce39ce8345e1cf3ffd8957c48df1d74f93e5ad6fe8f59473e0962e09",
	"mcgen-21":       "c778ae4f19b77fe64a2eb81a67cf72bcb87b2b86b7098d6da79c8b61225f496f",
	"mcgen-22":       "aa2a22da57edac82d1719b3966cc725ca8cdafe838fe44dec754b6fbd31fd0ba",
	"mcgen-23":       "04ad7c962d3bdfd69d86f89425701189eab788f87e02becb0164b5b512999c43",
	"mcgen-24":       "359ed6ad2e0faeb72a3d4bd1453541b67b1f71790d21e9258385729f568379c0",
	"mcgen-25":       "b8468667945751342412c99a6ae6f55dedecebac3b12526c175e191619b177d5",
	"mcgen-26":       "84df5887f95d0472393a6f65e1693021335c005b038e365e50f57c547d8efd6e",
	"mcgen-27":       "d1570ed9e81ff0d79427175f20dc03ca743226e62027e404d4a2eb0836496062",
	"mcgen-28":       "f7784a61c05c0dcd27dbfef4648e039410cd869e5428aeef96a23e0a1d885d02",
	"mcgen-29":       "5a2bf17415c3cf25b467fb7e16063444fc6fa20af98f50583ada90f8500ae292",
	"mcgen-30":       "09771fefc1baec6c59f3cccd04c765072c539c5e349834917edfa7a37e7c1724",
	"mcgen-31":       "69a8daf5dec85c4367a5180b712e05c4777c1fd2b565d5c3d220b2e5bba7dafe",
	"mcgen-32":       "4662af78d0859b7da3862584074b120495bac5906a7788d6808a8b64dc74b0a5",
	"mcgen-33":       "20fb10a49525c293e3066629b65d517c28e924d7920c26dc4739c4c9dd84d921",
	"mcgen-34":       "9755d1ab2ce89d2331f1ed2d8d8676e9e37e76fc7a166504003242fb289794d3",
	"mcgen-35":       "ce325980977bb242078cfc609cbc94ba915cdaa0db6b877cf32f2a7b08e27e1a",
	"mcgen-36":       "02813270bc0e847488eb741c6272ffb3b117b9982aee1c5c72878101fc1b7cfd",
	"mcgen-37":       "59d4547651b5040a368999a0a08850cd43ed0124b6e16d336be5e65b4d87d970",
	"mcgen-38":       "f959074348bddedb6cecd9a99fae3d9abb3fb9176278fcf449bdb3b9325d8af6",
	"mcgen-39":       "c1d3dff6fafeab846c2e6af4067f26096108f1a4b668305e6239164183fdee3f",
	"mcgen-40":       "1bac5fa2544529ba484f88dc1e115c1c8f3b8d74c9ca99b0059f6c67f6ac8d83",
	"mcgen-41":       "17650a1717cd9d75b3578a76d75f3595dd84d400dc11300c52a233697e8aa18b",
	"mcgen-42":       "1b236447ac874a991bff785c77062117dd8ca1f41fb1cf4acf9f75c7494e35bb",
	"mcgen-43":       "a221c6151b0dbf5c855d667a2681964404b78f24f21b5884a374bc11e6c7e6ca",
	"mcgen-44":       "1a6cc80b9560756bab1b6385b0b6a57ed9c0b9e816724f19c9856c8d1d39b11a",
	"mcgen-45":       "78ca265f77d05465ae429f66b5abca99418da0e03deff5e165d2d491dd0b177a",
	"mcgen-46":       "23cf17f1e8b222b9338746efeea41fcc3081710230e1e620a0624c886abc1670",
	"mcgen-47":       "9086c8ab0d5c9d5a6dea8ed569c4e9bcdafb90ed7591035fb9152e595505888d",
	"mcgen-48":       "65a81cdb6cc944936008cc0a2f90985660dd3c58751e963a7c0741de4efa5fec",
	"mcgen-49":       "2e0bf55256225c42043786e9c75dad7786a12c1bc1c27fc007f326817c8dfb57",
	"mcgen-50":       "31005725c69f509400f45e4b22672a093e2226ff52dd30a977f59fb3d4e4e6c2",
	"mcgen-51":       "cffaf5b6f6c844b3cb89fe689feaf167330b383ab44a9d218b7579acee73673d",
	"mcgen-52":       "d0f2f0277d918e92aded5f7c6217ef59d02168590eb42a3c23d95a7a0aa51c56",
	"mcgen-53":       "46eed2ef0ec43647436e7f06f9e76eacd969dcea3ea0b1c6845fe6c62d892c4a",
	"mcgen-54":       "e02f196624ecf289f47d1b27efe3425af0d9b911701e0e79c003ed3de5fa944c",
	"mcgen-55":       "9cb3c44973bbf18f0e8a80faf0f2f03849ef4dc550aa67fe7fdc14528fffe174",
	"mcgen-56":       "3ca4b1c840a4d488a6cd1e6e786eb924ec8c08ebe47c40626038bab2f7d2a31f",
	"mcgen-57":       "71e3b54df83b697d1a0140bcd038a3ccf117d3007cf2d83bc91765da18555ffe",
	"mcgen-58":       "e2fd6b35f723628819e9a6ff5c01572363ebe5e7fa9e4674f6dd3280a982bb4c",
	"mcgen-59":       "389a0b2adbd26c15dc4efea392e55507bc38da676463524f2535f395b030e804",
	"mcgen-60":       "c94c23ede39984b15db9a5cc4d24a32efc61c89ea58140771ee33836adb226f7",
	"repeat-reads":   "6b9704727a084f205df97139b3da6133c47dba07d17bc88e67de5ffc791a9f6c",
}
