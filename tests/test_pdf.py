"""From-scratch PDF parser tests: builder→extractor round-trips, layout
reordering determinism, and robustness (SURVEY.md §7.6)."""

import zlib


from pdf_parser_ray.pdf.build import build_pdf
from pdf_parser_ray.pdf.parse import (
    Name,
    Ref,
    Stream,
    _Lexer,
    assemble_lines,
    extract_page_texts,
    extract_text,
    is_pdf,
    TextRun,
)


class TestLexer:
    def parse(self, raw: bytes):
        return _Lexer(raw).parse()

    def test_dict_and_types(self):
        obj = self.parse(b"<< /A 1 /B -2.5 /C (hi) /D <414243> /E [1 2 R 3] /F true /G null >>")
        assert obj["A"] == 1
        assert obj["B"] == -2.5
        assert obj["C"] == b"hi"
        assert obj["D"] == b"ABC"
        assert obj["E"] == [Ref(1, 2), 3]
        assert obj["F"] is True
        assert obj["G"] is None

    def test_nested_dict(self):
        obj = self.parse(b"<< /Font << /F1 3 0 R >> >>")
        assert obj["Font"]["F1"] == Ref(3, 0)

    def test_name_with_escape(self):
        assert self.parse(b"/A#20B") == Name("A B")

    def test_literal_string_escapes(self):
        assert self.parse(rb"(a\(b\)c\\d\n\101)") == b"a(b)c\\d\nA"

    def test_nested_parens(self):
        assert self.parse(b"(a (b) c)") == b"a (b) c"

    def test_comment_skipped(self):
        assert self.parse(b"% hi\n42") == 42

    def test_stream(self):
        obj = self.parse(b"<< /Length 5 >>\nstream\nhello\nendstream")
        assert isinstance(obj, Stream)
        assert obj.data() == b"hello"

    def test_direct_length_keeps_trailing_eol_bytes(self):
        # payload bytes that look like an EOL belong to the stream when a
        # direct /Length says so; without a usable /Length the scan
        # still strips the EOL before 'endstream'
        obj = self.parse(b"<< /Length 5 >>\nstream\nabcd\r\nendstream")
        assert obj.raw == b"abcd\r"
        obj = self.parse(b"<< /Length 99 >>\nstream\nabcd\r\nendstream")
        assert obj.raw == b"abcd"
        obj = self.parse(b"<< /Length 3 0 R >>\nstream\nabcd\r\nendstream")
        assert obj.raw == b"abcd"

    def test_flate_stream(self):
        data = zlib.compress(b"payload")
        raw = b"<< /Length %d /Filter /FlateDecode >>\nstream\n" % len(data) + data + b"\nendstream"
        assert self.parse(raw).data() == b"payload"


class TestRoundTrip:
    def test_single_page(self):
        pdf = build_pdf([["line one here", "line two here"]])
        assert is_pdf(pdf)
        assert extract_text(pdf) == "line one here\nline two here"

    def test_multi_page_joined_with_newline(self):
        pdf = build_pdf([["page one text"], ["page two text"]])
        assert extract_page_texts(pdf) == ["page one text", "page two text"]
        assert extract_text(pdf) == "page one text\npage two text"

    def test_uncompressed(self):
        pdf = build_pdf([["plain body"]], compress=False)
        assert extract_text(pdf) == "plain body"

    def test_multi_run_line_space_joined(self):
        # two far-apart runs on one baseline -> single space between them
        pdf = build_pdf([[[(72.0, "1/5 ACH CREDIT"), (400.0, "1,500.00")]]])
        assert extract_text(pdf) == "1/5 ACH CREDIT 1,500.00"

    def test_scrambled_stream_order_reassembled(self):
        # identical geometry, reversed emission order -> identical text
        lines = [
            "first line of the page",
            [(72.0, "second"), (200.0, "line"), (300.0, "columns")],
            "third line here",
        ]
        a = extract_text(build_pdf([lines]))
        b = extract_text(build_pdf([lines], shuffle_order=True))
        assert a == b
        assert a == "first line of the page\nsecond line columns\nthird line here"

    def test_escapes_round_trip(self):
        pdf = build_pdf([["parens (kept) and back\\slash"]])
        assert extract_text(pdf) == "parens (kept) and back\\slash"

    def test_latin1_text(self):
        pdf = build_pdf([["café naïve déjà"]])
        assert extract_text(pdf) == "café naïve déjà"

    def test_statement_through_pdf(self):
        # bank-statement lines survive the full PDF round trip
        from pdf_parser_ray.extractors import REGISTRY
        from pdf_parser_ray.functions.scalars import text_to_lines

        lines = [
            "Bank statement 2024",
            "1/5 ACH CREDIT ACME PAYROLL 1,500.00 2,500.00",
            "1/7 CHECK 1021 200.00 2,300.00",
        ]
        pdf = build_pdf([lines])
        text = extract_text(pdf)
        recs = REGISTRY["generic"](text_to_lines(text), text, 2024)
        assert [r["amount"] for r in recs] == [1500.0, 200.0]

    def test_deterministic_build_and_parse(self):
        pdf1 = build_pdf([["same text"]])
        pdf2 = build_pdf([["same text"]])
        assert pdf1 == pdf2
        assert extract_text(pdf1) == extract_text(pdf2)


class TestAssembly:
    def test_y_tolerance_clusters(self):
        runs = [
            TextRun(x=72, y=700.0, text="a", size=12),
            TextRun(x=100, y=698.5, text="b", size=12),  # within tol 3
            TextRun(x=72, y=680.0, text="c", size=12),
        ]
        assert assemble_lines(runs) == "a b\nc"

    def test_x_ordering_within_line(self):
        runs = [
            TextRun(x=300, y=700, text="right", size=12),
            TextRun(x=72, y=700, text="left", size=12),
        ]
        assert assemble_lines(runs) == "left right"

    def test_adjacent_runs_concatenated(self):
        runs = [
            TextRun(x=72, y=700, text="conca", size=12),
            # pen after "conca" = 72 + 5*12*0.5 = 102; within x_tol 2
            TextRun(x=103.0, y=700, text="tenated", size=12),
        ]
        assert assemble_lines(runs) == "concatenated"

    def test_empty(self):
        assert assemble_lines([]) == ""


class TestRobustness:
    def test_not_a_pdf(self):
        assert extract_text(b"garbage bytes") == ""
        assert not is_pdf(b"<html></html>")

    def test_truncated_pdf(self):
        pdf = build_pdf([["some content here"]])
        # chop the trailer off — object scan should still find the page
        assert "some content" in extract_text(pdf[: len(pdf) - 80])

    def test_is_pdf_with_leading_whitespace(self):
        assert is_pdf(b"\n%PDF-1.4 rest")

    def test_reference_cycle_tolerated(self):
        raw = (
            b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
            b"2 0 obj\n<< /Type /Pages /Kids [2 0 R] /Count 1 >>\nendobj\n"
            b"trailer\n<< /Root 1 0 R >>"
        )
        assert extract_text(raw) == ""


class TestXrefStreamForms:
    """PDF 1.5 forms must extract byte-identically to the classic form:
    cross-reference streams (with and without PNG predictor) and object
    streams holding the page-tree dicts (VERDICT r01 'What's missing'
    #1 — real post-2005 corpora are mostly xref-stream PDFs)."""

    PAGES = [
        ["Account Statement", "01/02 COFFEE SHOP 4.50", "01/03 PAYROLL 1,200.00"],
        ["Page two header", [(72.0, "left col"), (300.0, "right col")]],
    ]

    def _classic_text(self, **kw):
        return extract_page_texts(build_pdf(self.PAGES, **kw))

    def test_xref_stream_identical(self):
        classic = self._classic_text()
        assert extract_page_texts(build_pdf(self.PAGES, xref_stream=True)) == classic

    def test_xref_stream_predictor_identical(self):
        classic = self._classic_text()
        got = extract_page_texts(
            build_pdf(self.PAGES, xref_stream=True, predictor=True)
        )
        assert got == classic

    def test_objstm_identical(self):
        classic = self._classic_text()
        got = extract_page_texts(build_pdf(self.PAGES, objstm=True))
        assert got == classic

    def test_objstm_predictor_identical(self):
        classic = self._classic_text()
        got = extract_page_texts(
            build_pdf(self.PAGES, objstm=True, predictor=True)
        )
        assert got == classic

    def test_incremental_update_identical(self):
        """Incremental-update form (appended object version + /Prev
        trailer chain): the LATEST version of page 1's content stream
        must win — the stale base-body draft never leaks into output."""
        classic = self._classic_text()
        data = build_pdf(self.PAGES, incremental=True)
        got = extract_page_texts(data)
        assert got == classic
        assert b"/Prev" in data and data.count(b"5 0 obj") == 2
        assert "STALE DRAFT" not in "\n".join(got)
        # the stale draft IS present in the base body (the form really
        # exercises version resolution, not a no-op append)
        assert b"STALE DRAFT" in zlib.decompress(
            data[data.find(b"stream\n", data.find(b"5 0 obj")) + 7:
                 data.find(b"endstream", data.find(b"5 0 obj"))]
        )

    def test_objstm_hides_page_dicts_from_flat_scan(self):
        """The ObjStm variant must actually exercise the expansion: the
        catalog/page dicts may not appear as top-level `N 0 obj` text."""
        data = build_pdf(self.PAGES, objstm=True)
        assert b"/Type /Catalog" not in data  # compressed away
        assert b"/Type /ObjStm" in data

    def test_xref_entries_decode(self):
        from pdf_parser_ray.pdf.parse import (
            Stream,
            parse_document,
            parse_xref_stream_entries,
        )

        data = build_pdf(self.PAGES, objstm=True, predictor=True)
        doc = parse_document(data)
        xref = next(
            obj
            for _, obj in sorted(doc.objects.items())
            if isinstance(obj, Stream)
            and str(obj.attrs.get("Type", "")) == "XRef"
        )
        entries = parse_xref_stream_entries(doc, xref)
        kinds = {t for t, _, _ in entries.values()}
        assert kinds == {0, 1, 2}  # free + offset + in-objstm entries
        # every type-1 offset points at the object's `N 0 obj` header
        for num, (t, off, _) in entries.items():
            if t == 1 and num in doc.objects:
                assert data[off : off + len(str(num))] == str(num).encode()

    def test_shuffled_objstm_round_trip(self):
        got = extract_page_texts(
            build_pdf(self.PAGES, objstm=True, shuffle_order=True)
        )
        assert got == self._classic_text()


class TestInlineImages:
    """``BI/ID/EI`` inline images (PDF 32000 §8.9.7) whose sample bytes
    contain the two bytes ``EI`` — a naive ``find(b"EI")`` reader cuts
    the content stream mid-image and loses or corrupts the page text
    (VERDICT r03 ask #4).  Extraction must be byte-identical to the
    image-free form."""

    PAGES = TestXrefStreamForms.PAGES

    def test_inline_image_identical(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, inline_image=True))
        assert got == classic

    def test_inline_image_declared_length_identical(self):
        """The /L form plants a WHITESPACE-DELIMITED `` EI `` inside
        the sample data: only honoring the declared byte count finds
        the true terminator."""
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, inline_image="L"))
        assert got == classic

    def test_trap_bytes_genuinely_present(self):
        data = build_pdf(self.PAGES, inline_image=True, compress=False)
        assert b"aEIbEI(cEI)dEIzz" in data  # non-delimited EIs
        data = build_pdf(self.PAGES, inline_image="L", compress=False)
        assert b"ab EI zz EI\nppp " in data  # ws-delimited EI inside data


class TestBrokenXref:
    """All-garbage xref offsets + mid-file ``startxref``: the scan-all
    reader (parse.py::parse_document) never dereferences table offsets,
    so extraction survives byte-identically (VERDICT r03 ask #4 —
    broken-xref recovery; real crawls carry linearizer-mangled xrefs)."""

    def test_broken_xref_identical(self):
        pages = TestXrefStreamForms.PAGES
        classic = extract_page_texts(build_pdf(pages))
        data = build_pdf(pages, broken_xref=True)
        assert b"9999999999 00000 n" in data  # the table really is garbage
        assert extract_page_texts(data) == classic


class TestType1EmbeddedEncoding:
    """Symbolic Type1 fonts with NO /Encoding dict entry: the embedded
    font program's cleartext ``dup <code> /<glyph> put`` array is the
    only decode source (VERDICT r03 'What's missing' #2 — the
    pdfplumber-covered real-crawl hazard; reference requirements.txt:6).
    The fixture's code assignment is deliberately non-identity (shared
    with the Type3 form), so a latin-1 fallback produces garbage."""

    PAGES = [["Statement café £9.50", "01/02 ACH DÉBIT 1,200.00"]]

    def test_round_trip_identical_to_simple(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, type1_program=True))
        assert got == classic

    def test_with_objstm_and_encryption(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        for kw in (
            {"objstm": True},
            {"encrypt_aes": True},
            {"xref_stream": True, "predictor": True},
        ):
            got = extract_page_texts(
                build_pdf(self.PAGES, type1_program=True, **kw)
            )
            assert got == classic, kw

    def test_no_encoding_entry_in_font_dict(self):
        from pdf_parser_ray.pdf.parse import parse_document

        doc = parse_document(build_pdf(self.PAGES, type1_program=True))
        font = next(
            o for o in doc.objects.values()
            if isinstance(o, dict) and str(o.get("Type")) == "Font"
        )
        assert "Encoding" not in font  # the program really is the only source
        fdesc = doc.resolve(font["FontDescriptor"])
        assert "FontFile" in fdesc

    def test_pfb_framed_program(self):
        """Real PFB files wrap the program in 0x80-type segment headers;
        the encoding extractor must de-frame them."""
        from pdf_parser_ray.pdf.build import _type1_program_bytes
        from pdf_parser_ray.pdf.parse import parse_type1_encoding_map

        prog, l1, _l2, _l3 = _type1_program_bytes()
        clear, rest = prog[:l1], prog[l1:]
        pfb = (
            b"\x80\x01" + len(clear).to_bytes(4, "little") + clear
            + b"\x80\x02" + len(rest).to_bytes(4, "little") + rest
            + b"\x80\x03"
        )
        cm = parse_type1_encoding_map(pfb)
        assert cm.chars[1] == " " and cm.chars[0x81] == "\xa0"
        assert len(cm.chars) == 191  # 95 ASCII + 96 Latin-1 (incl. nbspace)

    def test_standard_encoding_shorthand(self):
        from pdf_parser_ray.pdf.parse import parse_type1_encoding_map

        cm = parse_type1_encoding_map(
            b"%!PS\n/Encoding StandardEncoding def\ncurrentfile eexec\nxx"
        )
        assert cm.chars[0x41] == "A" and cm.chars[0x20] == " "

    def test_missing_encoding_degrades_empty(self):
        from pdf_parser_ray.pdf.parse import parse_type1_encoding_map

        assert parse_type1_encoding_map(b"%!PS nothing here").chars == {}


class TestCIDFonts:
    """Composite Type0/Identity-H fonts with ToUnicode CMaps — the
    common modern-producer text encoding (2-byte hex-string shows)."""

    PAGES = [["Statement café £9.50", "01/02 ACH DÉBIT 1,200.00"]]

    def test_cid_round_trip_identical_to_simple(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        cid = extract_page_texts(build_pdf(self.PAGES, cid_font=True))
        assert cid == classic

    def test_cid_with_objstm_and_predictor(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(
            build_pdf(self.PAGES, cid_font=True, objstm=True, predictor=True)
        )
        assert got == classic

    def test_cid_shows_are_hex_not_literal(self):
        data = build_pdf(self.PAGES, cid_font=True, compress=False)
        assert b"(Statement" not in data  # no literal-string shows
        assert b"/Identity-H" in data and b"/ToUnicode" in data

    def test_tounicode_bfchar_and_bfrange(self):
        from pdf_parser_ray.pdf.parse import parse_tounicode

        cmap = parse_tounicode(
            b"2 beginbfchar\n<0003> <0041>\n<0005> <00E9>\nendbfchar\n"
            b"1 beginbfrange\n<0010> <0012> <0061>\nendbfrange\n"
            b"1 beginbfrange\n<0020> <0021> [<0058> <0059>]\nendbfrange\n"
        )
        assert cmap[3] == "A" and cmap[5] == "é"
        assert cmap[0x10] == "a" and cmap[0x11] == "b" and cmap[0x12] == "c"
        assert cmap[0x20] == "X" and cmap[0x21] == "Y"

    def test_glyph_indexed_cmap_decodes_via_tounicode(self):
        """A NON-identity mapping (glyph-id codes) must decode through
        the CMap, not through chr(code)."""
        from pdf_parser_ray.pdf.parse import FontInfo

        font = FontInfo(two_byte=True, cmap={1: "H", 2: "i", 3: "!"})
        assert font.decode(b"\x00\x01\x00\x02\x00\x03") == "Hi!"
        # unmapped code falls back to chr(code)
        assert font.decode(b"\x00\x41") == "A"

    def test_surrogate_pair_bfchar(self):
        from pdf_parser_ray.pdf.parse import parse_tounicode

        # UTF-16BE surrogate pair for U+1D11E (musical G clef)
        cmap = parse_tounicode(b"1 beginbfchar\n<0001> <D834DD1E>\nendbfchar\n")
        assert cmap[1] == "\U0001d11e"


class TestEncryption:
    """Standard-security-handler PDFs (RC4, empty user password) — the
    common 'protected but openable' real-world form."""

    PAGES = [["Account Statement", "01/02 COFFEE 4.50", "01/03 PAYROLL 1,200.00"]]

    def test_encrypted_classic_identical(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, encrypt=True))
        assert got == classic

    def test_encrypted_xref_stream_identical(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, encrypt=True, xref_stream=True))
        assert got == classic

    def test_encrypted_objstm_cid_identical(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(
            build_pdf(
                self.PAGES, encrypt=True, objstm=True, predictor=True, cid_font=True
            )
        )
        assert got == classic

    def test_ciphertext_not_plaintext(self):
        data = build_pdf(self.PAGES, encrypt=True, compress=False)
        # uncompressed but encrypted: the show strings must not be readable
        assert b"Account Statement" not in data
        assert b"/Encrypt" in data and b"/Filter /Standard" in data

    def test_unsupported_aes_degrades_gracefully(self):
        data = build_pdf(self.PAGES, encrypt=True)
        # claim AES (V 4): decryptor must leave bytes alone, not crash
        bad = data.replace(b"/V 2 /R 3", b"/V 4 /R 4")
        out = extract_page_texts(bad)  # garbage or empty, but no exception
        assert isinstance(out, list)


class TestDifferencesEncoding:
    """Simple-font /Encoding /Differences arrays: glyph-name remapping
    of byte codes (the common subsetted-font form from office-suite
    producers)."""

    def _pdf_with_differences(self, shown: bytes = b"caf\x01 \x02 \x03"):
        """Hand-build a PDF whose font remaps codes 0x01->eacute,
        0x02->Euro, 0x03->uni2603 (snowman), then shows ``shown``."""
        import zlib as z

        content = (
            b"BT /F1 12.00 Tf 1 0 0 1 72.00 720.00 Tm (" + shown + b") Tj ET"
        )
        data = z.compress(content)
        objs = [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [4 0 R] /Count 1 >>",
            b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica"
            b" /Encoding << /BaseEncoding /WinAnsiEncoding"
            b" /Differences [ 1 /eacute /Euro /uni2603 ] >> >>",
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792]"
            b" /Resources << /Font << /F1 3 0 R >> >> /Contents 5 0 R >>",
            b"<< /Length %d /Filter /FlateDecode >>\nstream\n" % len(data)
            + data + b"\nendstream",
        ]
        out = bytearray(b"%PDF-1.4\n")
        offs = []
        for n, body in enumerate(objs, start=1):
            offs.append(len(out))
            out += b"%d 0 obj\n" % n + body + b"\nendobj\n"
        xref = len(out)
        out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1)
        for o in offs:
            out += b"%010d 00000 n \n" % o
        out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
            len(objs) + 1, xref,
        )
        return bytes(out)

    def test_differences_decode(self):
        pages = extract_page_texts(self._pdf_with_differences())
        assert pages == ["café € ☃"]

    def test_base_encoding_fills_unmapped_codes(self):
        """Codes not named in /Differences decode through the
        /BaseEncoding (WinAnsi 0x93 -> left double quote), not latin-1
        C1 controls."""
        pdf = self._pdf_with_differences(shown=b"caf\x01 \x93ok\x94")
        assert extract_page_texts(pdf) == ["café “ok”"]


class TestBaseEncodings:
    """Named simple-font base encodings: WinAnsi (cp1252) differs from
    the latin-1 default in 0x80-0x9F — smart quotes/dashes/Euro, the
    bytes real-world statement PDFs actually use — and MacRoman differs
    across the whole high half.  pdfplumber resolves these via pdfminer's
    encoding tables (reference parsers/base.py:29); parity requires the
    same code->char results."""

    def test_winansi_smart_punctuation(self):
        # build_pdf writes /Encoding /WinAnsiEncoding on simple fonts;
        # latin-1-encoding the fixture string puts the raw cp1252 bytes
        # in the content stream
        pdf = build_pdf([["\x93Hello\x94 \x96 world \x85 \x80 fin"]])
        assert extract_text(pdf) == "“Hello” – world … € fin"

    def test_macroman_high_range(self):
        pdf = build_pdf([["caf\x8e \xa5 \xd0ok\xd1"]])
        # swap the font's named encoding to MacRoman: 0x8e->é,
        # 0xa5->bullet, 0xd0/0xd1->en/em dash
        pdf = pdf.replace(b"/Encoding /WinAnsiEncoding", b"/Encoding /MacRomanEncoding")
        assert extract_text(pdf) == "café • –ok—"

    def test_latin1_fallback_without_encoding(self):
        # no /Encoding entry at all -> latin-1 passthrough (unchanged)
        pdf = build_pdf([["caf\xe9 plain"]])
        pdf = pdf.replace(b" /Encoding /WinAnsiEncoding", b"")
        assert extract_text(pdf) == "café plain"

    def test_glyph_table_spot_checks(self):
        from pdf_parser_ray.pdf.parse import glyph_to_unicode

        assert glyph_to_unicode("eacute") == "é"
        assert glyph_to_unicode("ydieresis") == "ÿ"      # last Latin-1 slot
        assert glyph_to_unicode("exclamdown") == "¡"      # first Latin-1 slot
        assert glyph_to_unicode("endash") == "–"
        assert glyph_to_unicode("uni00E9") == "é"
        assert glyph_to_unicode("u1D11E") == "\U0001d11e"
        assert glyph_to_unicode("nosuchglyph") is None


class TestStreamFilters:
    """LZW / ASCII85 / RunLength decode — spec vectors, stdlib
    differentials, and writer-roundtrips through every builder form."""

    def test_lzw_spec_example(self):
        # PDF 1.7 §7.4.4.2 worked example (decimal byte values):
        # encoded 80 0B 60 50 22 0C 0C 85 01 -> 45 45 45 45 45 65 45 45 45 66
        from pdf_parser_ray.pdf.parse import _lzw_decode

        assert _lzw_decode(bytes.fromhex("800B6050220C0C8501")) == bytes(
            [45, 45, 45, 45, 45, 65, 45, 45, 45, 66]
        )

    def test_lzw_roundtrip_with_table_overflow(self):
        from pdf_parser_ray.pdf.build import _lzw_encode
        from pdf_parser_ray.pdf.parse import _lzw_decode

        # >4096 distinct phrases forces a mid-stream clear code
        data = bytes(
            (i * 7 + (i >> 3)) & 0xFF for i in range(40_000)
        ) + b"the quick brown fox" * 50
        assert _lzw_decode(_lzw_encode(data)) == data

    def test_ascii85_differential_vs_stdlib(self):
        import base64

        from pdf_parser_ray.pdf.build import _ascii85_encode
        from pdf_parser_ray.pdf.parse import _ascii85_decode

        for data in (b"", b"x", b"sure.", b"ascii85 partial grp", bytes(range(256))):
            assert _ascii85_decode(base64.a85encode(data) + b"~>") == data
            assert base64.a85decode(_ascii85_encode(data)[:-2]) == data
            assert _ascii85_decode(_ascii85_encode(data)) == data

    def test_ascii85_z_group_and_whitespace(self):
        from pdf_parser_ray.pdf.parse import _ascii85_decode

        assert _ascii85_decode(b"z~>") == b"\x00\x00\x00\x00"
        assert _ascii85_decode(b" z\n z\t~>") == b"\x00" * 8

    def test_rle_roundtrip(self):
        from pdf_parser_ray.pdf.build import _rle_encode
        from pdf_parser_ray.pdf.parse import _rle_decode

        for data in (b"", b"abc", b"x" * 300, b"ab" + b"c" * 5 + b"de" * 70):
            assert _rle_decode(_rle_encode(data)) == data


class TestFilterAndAESForms:
    """Every writer form must extract byte-identical text — the
    real-corpus robustness matrix (reference gets this from pdfplumber;
    reference parsers/base.py:29)."""

    PAGES = [
        ["Account Statement", "01/02 COFFEE SHOP 12.50",
         [(72.0, "col a"), (300.0, "col b")]],
        ["second page line one", "second page line two"],
    ]

    FORMS = {
        "lzw": dict(content_filter="lzw"),
        "rle": dict(content_filter="rle"),
        "a85+lzw": dict(content_filter="a85+lzw"),
        "lzw+xref_stream": dict(content_filter="lzw", xref_stream=True),
        "aesv2": dict(encrypt_aes=True),
        "aesv2+objstm": dict(encrypt_aes=True, objstm=True),
        "aes256": dict(encrypt_aes256=True),
        "aes256+objstm+cid": dict(
            encrypt_aes256=True, objstm=True, cid_font=True
        ),
    }

    def test_all_forms_identical_text(self):
        from pdf_parser_ray.pdf.parse import extract_text

        base = extract_text(build_pdf(self.PAGES))
        assert "COFFEE SHOP" in base
        for name, kw in self.FORMS.items():
            assert extract_text(build_pdf(self.PAGES, **kw)) == base, name

    def test_aes256_key_recovery_is_exact(self):
        # the V5 path must recover the builder's file key from /UE
        import hashlib

        from pdf_parser_ray.pdf.build import _make_encryption_aes256
        from pdf_parser_ray.pdf.parse import _aes_cbc, _hash_2b

        o, u, oe, ue, perms, p, fkey = _make_encryption_aes256()
        ikey = _hash_2b(b"", u[40:48])
        assert _aes_cbc(ikey, bytes(16), ue[:32], encrypt=False) == fkey
        assert fkey == hashlib.sha256(b"pdf_parser_ray_aes256_file_key").digest()

    def test_aes_ciphertext_ending_in_cr(self):
        # the writer emits '\nendstream', so a ciphertext ending in 0x0D
        # looks like a CRLF EOL; only /Length keeps its last byte
        from pdf_parser_ray.pdf.parse import extract_text

        hits = 0
        for i in range(400):
            pages = [["Account Statement", f"01/02 COFFEE SHOP {i}.50"]]
            pdf = build_pdf(pages, encrypt_aes=True)
            if b"\r\nendstream" not in pdf:
                continue
            hits += 1
            assert extract_text(pdf) == extract_text(build_pdf(pages)), i
        assert hits

    def test_truncated_aes_stream_degrades_not_crashes(self):
        from pdf_parser_ray.pdf.parse import extract_text

        data = bytearray(build_pdf(self.PAGES, encrypt_aes=True))
        # corrupt the tail (likely inside the last stream body)
        data[-400:-380] = b"\x00" * 20
        extract_text(bytes(data))  # must not raise


class TestFormXObjects:
    """Text inside /Subtype /Form XObjects (the Do operator) — many
    real producers emit headers/footers/entire pages this way."""

    PAGES = TestFilterAndAESForms.PAGES

    def test_form_forms_identical_text(self):
        from pdf_parser_ray.pdf.parse import extract_text

        base = extract_text(build_pdf(self.PAGES))
        for kw in (
            dict(form_xobject=True),
            dict(form_xobject=True, objstm=True),
            dict(form_xobject=True, cid_font=True),
            dict(form_xobject=True, encrypt_aes256=True),
            dict(form_xobject=True, content_filter="lzw"),
        ):
            assert extract_text(build_pdf(self.PAGES, **kw)) == base, kw

    def test_missing_xobject_ignored(self):
        from pdf_parser_ray.pdf.parse import _ContentInterpreter, assemble_lines

        interp = _ContentInterpreter()
        interp.run(b"BT /F1 12 Tf 1 0 0 1 72 720 Tm (kept) Tj ET /NoSuch Do")
        assert assemble_lines(interp.runs) == "kept"

    def test_recursion_depth_capped(self):
        from pdf_parser_ray.pdf.parse import (
            FormXObject,
            _ContentInterpreter,
            assemble_lines,
        )

        # a form that invokes itself: must terminate and keep its text
        xo = FormXObject(
            content=b"BT /F1 12 Tf 1 0 0 1 72 720 Tm (loop) Tj ET /F Do",
            fonts={},
            xobjects={},
            matrix=None,
        )
        xo.xobjects = {"F": xo}
        interp = _ContentInterpreter(xobjects={"F": xo})
        interp.run(b"/F Do")
        text = assemble_lines(interp.runs)
        assert "loop" in text and len(text) < 100


class TestRotatedPages:
    """/Rotate 90/180/270 pages (scanned-statement orientation): the
    builder pre-rotates content so the page displays upright; the
    parser must undo the rotation or the y-then-x line assembler would
    read columns as rows."""

    PAGES = TestFilterAndAESForms.PAGES

    def test_rotations_identical_text(self):
        base = extract_page_texts(build_pdf(self.PAGES))
        for rot in (90, 180, 270):
            assert extract_page_texts(build_pdf(self.PAGES, rotate=rot)) == base, rot

    def test_rotate_composes_with_other_forms(self):
        base = extract_page_texts(build_pdf(self.PAGES))
        for kw in (
            dict(rotate=90, objstm=True),
            dict(rotate=270, cid_font=True),
            dict(rotate=90, form_xobject=True),
            dict(rotate=180, encrypt_aes=True),
        ):
            assert extract_page_texts(build_pdf(self.PAGES, **kw)) == base, kw

    def test_rotate_inherited_from_pages_node(self):
        # /Rotate on the /Pages parent, not the page: §7.7.3.4 inheritance
        data = build_pdf(self.PAGES, rotate=90, compress=False)
        moved = data.replace(b" /Rotate 90", b"").replace(
            b"/Type /Pages /Kids", b"/Type /Pages /Rotate 90 /Kids"
        )
        assert b"/Rotate 90 /Kids" in moved
        assert extract_page_texts(moved) == extract_page_texts(build_pdf(self.PAGES))

    def test_bogus_rotate_value_tolerated(self):
        data = build_pdf(self.PAGES)
        broken = data.replace(
            b"/Type /Page /Parent 2 0 R", b"/Type /Page /Rotate /Bad /Parent 2 0 R"
        )
        assert extract_page_texts(broken) == extract_page_texts(data)


class TestNonIdentityCMap:
    """Type0 fonts whose /Encoding is an EMBEDDED CMap stream with
    mixed 1/2-byte codespace ranges (the CJK-style producer form):
    the parser must split shows into variable-length codes by
    codespace before mapping through ToUnicode."""

    PAGES = [
        ["Statement For ACME Corp", "01/02 ACH DEBIT 1,200.00"],
        ["TOTAL DUE 950.17"],
    ]

    def test_identical_to_simple(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, cid_cmap=True))
        assert got == classic

    def test_composes_with_xref_stream_and_forms(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        for kw in (
            dict(cid_cmap=True, xref_stream=True),
            dict(cid_cmap=True, objstm=True, predictor=True),
            dict(cid_cmap=True, form_xobject=True),
            dict(cid_cmap=True, shuffle_order=True),
        ):
            assert extract_page_texts(build_pdf(self.PAGES, **kw)) == classic, kw

    def test_build_is_byte_deterministic(self):
        a = build_pdf(self.PAGES, cid_cmap=True)
        b = build_pdf(self.PAGES, cid_cmap=True)
        assert a == b

    def test_mixed_width_codes_on_the_wire(self):
        data = build_pdf(self.PAGES, cid_cmap=True, compress=False)
        assert b"(Statement" not in data  # hex shows only
        assert b"/Identity-H" not in data  # embedded CMap, not Identity
        # uppercase rides the 2-byte 0x81 page: 'A' -> 8141
        assert b"8141" in data

    def test_parse_cmap_codespaces(self):
        from pdf_parser_ray.pdf.parse import parse_cmap_codespaces

        spaces = parse_cmap_codespaces(
            b"2 begincodespacerange\n<20> <7e>\n<8140> <81ff>\n"
            b"endcodespacerange"
        )
        assert spaces == [(1, 0x20, 0x7E), (2, 0x8140, 0x81FF)]

    def test_variable_length_decode(self):
        from pdf_parser_ray.pdf.parse import CMap, FontInfo

        font = FontInfo(
            codespaces=[(1, 0x20, 0x7E), (2, 0x8140, 0x81FF)],
            cmap=CMap({}, [(0x20, 0x7E, 0x20, 2), (0x8141, 0x815A, 0x41, 2)]),
        )
        # "a" 1-byte, "B" 2-byte, space 1-byte, "Z" 2-byte
        assert font.decode(b"a\x81\x42 \x81\x5a") == "aB Z"
        # bytes outside every codespace are skipped, not crashed on
        assert font.decode(b"\x01a\xff") == "a"


class TestType3Fonts:
    """/Subtype /Type3 fonts: CharProcs glyph streams and a
    non-identity /Encoding /Differences code assignment — extraction
    resolves codes through glyph names (no base encoding exists)."""

    PAGES = TestNonIdentityCMap.PAGES

    def test_identical_to_simple(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, type3_font=True))
        assert got == classic

    def test_composes_with_other_forms(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        for kw in (
            dict(type3_font=True, objstm=True),
            dict(type3_font=True, xref_stream=True, predictor=True),
            dict(type3_font=True, shuffle_order=True),
            dict(type3_font=True, content_filter="lzw"),
        ):
            assert extract_page_texts(build_pdf(self.PAGES, **kw)) == classic, kw

    def test_build_is_byte_deterministic(self):
        assert build_pdf(self.PAGES, type3_font=True) == build_pdf(
            self.PAGES, type3_font=True
        )

    def test_codes_are_shifted_not_ascii(self):
        data = build_pdf(self.PAGES, type3_font=True, compress=False)
        assert b"/Type3" in data and b"/CharProcs" in data
        # 'S' (0x53) encodes as 0x34 under code = ord - 0x1f; the raw
        # ASCII string must not appear anywhere in the content
        assert b"(Statement" not in data
        assert b"/Differences" in data


class TestNewFontFormsLatin1:
    """Both new forms must carry printable Latin-1 (the Chase Spanish
    sections: Depósito/crédito/DÉBITO) — uppercase on the 0x81 page,
    high Latin-1 on the 0x82 page (cid_cmap) / codes 0x81-0xe0 through
    the Latin-1 glyph names (type3)."""

    PAGES = [
        ["Depósito Ó á é crédito", "TRANSFERENCIA DÉBITO 1,200.00"],
    ]

    def test_full_latin1_roundtrip(self):
        # every printable latin-1 char except soft hyphen (its standard
        # glyph name /hyphen round-trips to U+002D)
        latin = "".join(
            chr(o)
            for o in list(range(0x20, 0x7F)) + [0xA0] + list(range(0xA1, 0x100))
            if o != 0xAD
        )
        pages = [[latin[:80]], [latin[80:]]]
        base = extract_page_texts(build_pdf(pages))
        assert extract_page_texts(build_pdf(pages, cid_cmap=True)) == base
        assert extract_page_texts(build_pdf(pages, type3_font=True)) == base

    def test_spanish_sections_identical(self):
        base = extract_page_texts(build_pdf(self.PAGES))
        assert "Depósito" in base[0]
        for kw in (dict(cid_cmap=True), dict(type3_font=True)):
            assert extract_page_texts(build_pdf(self.PAGES, **kw)) == base, kw


class TestSymbolicTrueType:
    """/Subtype /TrueType, /Flags bit 3, NO /Encoding: text decodes
    through the embedded sfnt — (3,0) format-4 cmap (0xF000 symbol
    page) -> glyph id -> post-2.0 glyph name -> unicode.  Glyph ids are
    assigned in reversed name order, so a decoder that skips the post
    table cannot pass."""

    PAGES = TestNonIdentityCMap.PAGES

    def test_identical_to_simple(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        got = extract_page_texts(build_pdf(self.PAGES, truetype_symbolic=True))
        assert got == classic

    def test_full_latin1_roundtrip(self):
        latin = "".join(
            chr(o)
            for o in list(range(0x20, 0x7F)) + [0xA0] + list(range(0xA1, 0x100))
            if o != 0xAD
        )
        pages = [[latin[:80]], [latin[80:]]]
        base = extract_page_texts(build_pdf(pages))
        got = extract_page_texts(build_pdf(pages, truetype_symbolic=True))
        assert got == base

    def test_composes_with_other_forms(self):
        classic = extract_page_texts(build_pdf(self.PAGES))
        for kw in (
            dict(truetype_symbolic=True, objstm=True),
            dict(truetype_symbolic=True, xref_stream=True, predictor=True),
            dict(truetype_symbolic=True, shuffle_order=True),
            dict(truetype_symbolic=True, form_xobject=True),
        ):
            assert extract_page_texts(build_pdf(self.PAGES, **kw)) == classic, kw

    def test_sfnt_cmap_and_post_parse(self):
        from pdf_parser_ray.pdf.build import _sfnt_symbolic, _symbolic_code_of
        from pdf_parser_ray.pdf.parse import parse_truetype_unicode_map

        code_of = _symbolic_code_of()
        cmap = parse_truetype_unicode_map(
            _sfnt_symbolic(list(code_of), code_of)
        )
        # codes are ord ^ 1: a decoder skipping the cmap/post chain and
        # falling back to chr(code) produces pair-swapped garbage
        assert cmap.get(ord("A") ^ 1) == "A"
        assert cmap.get(0x20 ^ 1) == " "
        assert cmap.get(0xE9 ^ 1) == "é"  # eacute via post name
        assert cmap.get(ord("A")) != "A"

    def test_malformed_font_degrades_not_crashes(self):
        from pdf_parser_ray.pdf.parse import parse_truetype_unicode_map

        assert not parse_truetype_unicode_map(b"\x00\x01\x00\x00")
        assert not parse_truetype_unicode_map(b"garbage")

    def test_no_encoding_on_the_wire(self):
        data = build_pdf(self.PAGES, truetype_symbolic=True, compress=False)
        assert b"/TrueType" in data and b"/FontFile2" in data
        assert b"/ToUnicode" not in data and b"/Differences" not in data
