package interp_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"scaf/internal/bench"
	"scaf/internal/interp"
	"scaf/internal/lower"
	"scaf/internal/mcgen"
)

// TestRunDigest pins what a bare run of each of the 16 suite programs
// and mcgen seeds 1–60 produces: its step count, its printed output and
// the digest of its final memory image, hashed per program. A change to
// how the interpreter executes must leave every literal as it is; on
// failure the test names the program whose run diverged.
func TestRunDigest(t *testing.T) {
	type program struct{ name, src string }
	var programs []program
	for name, src := range bench.Sources {
		programs = append(programs, program{name, src})
	}
	sort.Slice(programs, func(i, j int) bool { return programs[i].name < programs[j].name })
	for seed := int64(1); seed <= 60; seed++ {
		programs = append(programs, program{fmt.Sprintf("mcgen-%d", seed), mcgen.New(seed).Program()})
	}
	for _, p := range programs {
		mod, err := lower.Compile(p.name, p.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.name, err)
		}
		res, err := interp.Run(mod, interp.Options{})
		if err != nil {
			t.Fatalf("%s: run: %v", p.name, err)
		}
		rendered := fmt.Sprintf("steps %d\nmem %016x\noutput %q\n", res.Steps, res.Mem.Digest(), strings.Join(res.Output, "\n"))
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(rendered)))
		if want := runWant[p.name]; got != want {
			t.Errorf("%s: run digest %s, want %s (%d steps, memory %016x, %d output lines)",
				p.name, got, want, res.Steps, res.Mem.Digest(), len(res.Output))
		}
	}
}

// runWant holds each program's run digest, computed before calls reused
// their activations and loads and stores remembered their last object.
var runWant = map[string]string{
	"052.alvinn":     "fe3905a3dc9a4680f5286aaee5dd8f719725adbeef90af0f7b5feb0358c72722",
	"056.ear":        "94de887519f81e938b7962b75e8393cfe15c6da5da13c95dc200c4a0f682df82",
	"129.compress":   "ee988817b221608837f4a96bf3f63d070dfb4022c8c36bb41c84ecbd8dd329b1",
	"164.gzip":       "cfad399f65855cadc5b09c4ff33671f4de9b63d285fa5af47e3ad02d2da27fcc",
	"175.vpr":        "7d67a5216045e06797f933460bd48aa304803d2ef93603950af8d4ec466b2698",
	"179.art":        "93f2fbd91a14025095fddf1166c8d3513dc423fb62f6accf2ddff52c2e9a0719",
	"181.mcf":        "246ebf6038f6531cfcc8f71e85fd1c947bddb4573dfcb7b85f1ae45fa435a7db",
	"183.equake":     "2007afcec816ddc29a197166e75057adf34d43cf00e587300920f71672b056b6",
	"429.mcf":        "4908f945e3730858a2d598e6dfcb1c9e8380874b280ec5f894c720b8a9d1cdfe",
	"456.hmmer":      "609d3c2ee460d77d4296b291b5398c4c6cd98cb8ae00cc53168475d8ea4b8bb6",
	"462.libquantum": "3e428981482886e4583de549696c7972d8d7a851d04a12125bd2b0f073347cf7",
	"470.lbm":        "237e7ecfba9963266448fbec85970baf1eadcec7c1d40c8b96111238a4d2393d",
	"482.sphinx3":    "c8624ce6713d137a6df734f15ef4a0f0bd79c8439f116b0702aebcfda0dc526f",
	"519.lbm":        "63f9f59cbc412c1ce3115def4944a8f31ae4228ffee2af495a32cfcbb29dd889",
	"525.x264":       "a4a34770b41aca4c0a0a4098ccab9252c447aa4bc9ca85e8bb60a7d2448a6163",
	"544.nab":        "f96757541e553a4c65ccf0714008a8c5ad3ef14da09aee17df5d71eac68ff91a",
	"mcgen-1":        "b486648a4f43f8a32135201cf33c7a63fc08eaa6e166e15e442a1c8a94d7114b",
	"mcgen-2":        "1a2cb3f9d9b71022eedb2c68a8e5d19a30e477e61fcc27506737e18cec0af488",
	"mcgen-3":        "1da6c01cc4ec6fc274af94c8ef6a305b6f77ad4c020d537bfee791674821df64",
	"mcgen-4":        "e3b966fea1c20f2b17c18d22c9e1f4c6ff3e3fac2bc47b928fc8c2087283dd25",
	"mcgen-5":        "33dda6bdc0080b658435ae13169079ed43c6c897f6511a37cc35903c1bcd1e15",
	"mcgen-6":        "e7781f18ca647ebdfc6fc3b00f7c7a47c05d93114eee0f90ac7523343a1a6cec",
	"mcgen-7":        "d4bfb4269bc1b797f175e3d5fb1e916213fd226d816abec7bac4bed8a938e239",
	"mcgen-8":        "48b36909241cf02e3ba94fa1a5bfe0c0cae0126395abf3e0927e16f582f7efc0",
	"mcgen-9":        "c853257d85b08eec1914f030451c866a67fa2a8c392bc07b02e998638e88cfe6",
	"mcgen-10":       "ba7111e35fce32f9bd95c0b90d299539268453df485eded909ef54cabe2bd600",
	"mcgen-11":       "336f313980e24ce81b0a4a976f7431153c0dca89f0b5e7246cefc03478ceaca8",
	"mcgen-12":       "b5009780f963a3a3fce1f936e8500738ca57347036e0e00a9f02c145ecd12081",
	"mcgen-13":       "04c826adb85664a39f5b41880b1fa6b5e74bdf28468b4d4c1bbbe51a50d440bc",
	"mcgen-14":       "21c5864f4f7d09555933d6b655bd70713df5952b386fc80ae8bc2d8325aa2934",
	"mcgen-15":       "2ed65fea1ae58fb827ef904e31e1fc02f1cd3f9678660b2f7729a9c19edb64df",
	"mcgen-16":       "8895fcfa7950bc31e88f87fdc7ed09c5fb6c0e8055c334ff85ff2a29103e3e32",
	"mcgen-17":       "57e7e7c982c63cb757878c24dfd04dfc5e6772ca392e8255f64d257899e33e49",
	"mcgen-18":       "de5c85a14914980b7e6b9cb468fcad23a8308958e247d871f360cb2a4270a836",
	"mcgen-19":       "2cd9885d63cbbbe0e13bd7bb127acd89e7a7e50a621bc47eaccda303a8f07eaf",
	"mcgen-20":       "e497604d765d1d7efdd7124aff913ed3f0fd91b200047fcbfdf568765c9a17ac",
	"mcgen-21":       "05f2b99c8a70cf4c1b7173737d3a7a779bd33919bd6135dd1125f4a49e8fd537",
	"mcgen-22":       "7adb81794a1c5f6aea7ead4ea1db92547eee4509a0475973cfcbbfce53e74250",
	"mcgen-23":       "5d5b2a7f9e96fa2cdb183cbceac50d87ce4f587202c4ea880dd82c6505a08bf1",
	"mcgen-24":       "7ec0753c0d44485fa451e195370b9cd10cd572ed54af172a5dc74476fdc97f08",
	"mcgen-25":       "b4d91f2d368a2a9873c693688401e28cffc3a9301cbebe020f8eb49e41017c46",
	"mcgen-26":       "350571dffbb01e5cd95f0c0927c4e23dec9f217cea923290b5eca54d3a5834ac",
	"mcgen-27":       "ff50b059669613dea050e4c7e838d64c95b780fdadbfe7b7f9f714db3e529752",
	"mcgen-28":       "0d8e41ec61618ee710a01d6fcf6a7c6905c376ad6067853150c880c41424e58b",
	"mcgen-29":       "13e54449b44652c912118baa3d8e6a936531605101f111dd072c68be962ce288",
	"mcgen-30":       "9dce42f51804d87dd3ebfb9d08e64ee7cedf77c629cf130b69bd8b111c25594f",
	"mcgen-31":       "ae33cb3060964da1ec0ca483ef210c8399fa838d2dd6be0ccdacc022e1e2a70a",
	"mcgen-32":       "417bcf324902f6d0e52925bf4ad9ed548bf01a2b2dbe10b817e49777bd5950e3",
	"mcgen-33":       "05ee8093407c90ef2a1cb1a2716176c24a6a496ef0eacaeb09553a87a95cc117",
	"mcgen-34":       "5edc6b53439e715bcb88dff572ba95b32127f5a419594f99a1d50d1cf577b901",
	"mcgen-35":       "e1ae0f56da3ab5a9a0d5b18fa016a4d9c9c0843b90b558754a8b23d2c01fe08d",
	"mcgen-36":       "6747231ec32c689d5ed29c6cb624915604ef60a45ef0bb17aaa54b42fa963bac",
	"mcgen-37":       "7127f426e7a3ee602e6bce8298af1c248d5f3123a787e09b4e0af9497822ddfd",
	"mcgen-38":       "1752fe3f27840c78a600c5078c36658fc1e6789d621efec4a941c9de3cd87f1b",
	"mcgen-39":       "f3b372cb006445844a5baf1e55dd4eea43b40731f0845a928ef738e9a40aa50b",
	"mcgen-40":       "48ecde77c9476c4e772e7fa4420b4e2ad78257b8ceee482d8ef51ed9246c0881",
	"mcgen-41":       "328e847d1d78d306f590771228d2a33777b95176d5e1b85becd0741d7b4c6af2",
	"mcgen-42":       "a50c22e477ac2363bc3767336cb862b6bf0b6bf4c3ab7863334005f2124e74f8",
	"mcgen-43":       "3dd704086ae3e76796679356baf78a517d416a1cbfeb362a319e7c9ee26b0171",
	"mcgen-44":       "f150e6d18359faf4e45074f58a60068ee5365bf5e407ffb64ff97ccba283784e",
	"mcgen-45":       "35b440058fa44f8ebd056122cfcf16979bb2a8966e134749dee6bb0ffda388a2",
	"mcgen-46":       "bf508cd5a26cffdbbc0e9c2ecf97b989149eb0bcb1862f38b1b24b2a3b7a024a",
	"mcgen-47":       "f4c96d455ace9fc80620062b24dd7ef4038beb03354718526424dbb636af699e",
	"mcgen-48":       "8346b18d18df7d0349a7b7262d620a5a3b37ffc6d44579ded4b29b3be1b06cd7",
	"mcgen-49":       "3132efcb8bb3f62178370db7d34e74bfe48f48876c4f92f419638b0f869a5ea3",
	"mcgen-50":       "ba1a0e5d04bd0644d04cf8984cc7c45a6a3261d99586ca6930d3e7e7529abb6a",
	"mcgen-51":       "e40c11e7471fe4e9809e99fc29d1582419716e8b9b6d8866669bdb20bea105f7",
	"mcgen-52":       "b583702f5c0a27bc3ab26062c3f3feed3933dd3ce9d2989abad4d2f6ecb8f8d4",
	"mcgen-53":       "177c4f4c4edc2ecb13eac8a2de284543a5128e853e2bf13ce0628946b6fe3d4c",
	"mcgen-54":       "0c028371d4f6e65ebf8f52fb8fff2008f359f59dc6bf94981da8098cdb0e96b3",
	"mcgen-55":       "699f64afff87f0cae8bd49fb44149ef2b26182e4f6a8592b513b1f9079fed9b7",
	"mcgen-56":       "9b686aadbfea736c783b1796a20b4c9be92f98ec7dbc790b24fca9dd4b8dddac",
	"mcgen-57":       "888bc20e2a33471d09ff63e561c21e8f68047b32b40256990a5336b515b0addf",
	"mcgen-58":       "e8e3366a321ef77a1bb4707e041f31bf10506b1fbfb815d4c22b995649e3f6a3",
	"mcgen-59":       "ff7de22fdb18375e4816a02d44c00228c54123ad08692b7987cd7b094cac6d5d",
	"mcgen-60":       "74132a54a191924357c118923c7aac2932c3130b609a8a3efb68cd2930623174",
}
