package digesttest

import "testing"

func TestRewrite(t *testing.T) {
	src := "package p\n\nvar want = map[string]string{\n\t\"a\": \"0011\", // recorded at abc\n\t\"bb\": \"2233\",\n}\n"
	got, err := rewrite([]byte(src), "0011", "4455", "re-recorded, parent def: why")
	if err != nil {
		t.Fatal(err)
	}
	want := "package p\n\nvar want = map[string]string{\n\t\"a\":  \"4455\", // re-recorded, parent def: why\n\t\"bb\": \"2233\",\n}\n"
	if string(got) != want {
		t.Fatalf("rewrite gave\n%s\nwant\n%s", got, want)
	}
	if _, err := rewrite([]byte(src+"var x = \"2233\"\n"), "2233", "0", "n"); err == nil {
		t.Fatal("an ambiguous literal was rewritten")
	}
}
