package minisol

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse lexes and parses a source file.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, structNames: map[string]bool{}, src: src}
	return p.parseFile()
}

type parser struct {
	toks        []Token
	pos         int
	structNames map[string]bool
	src         string
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("minisol: %d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(text string) error {
	if p.cur().Kind == TokPunct && p.cur().Text == text {
		p.advance()
		return nil
	}
	return p.errf("expected %q, got %q", text, p.cur().Text)
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().Kind == TokIdent {
		return p.advance().Text, nil
	}
	return "", p.errf("expected identifier, got %q", p.cur().Text)
}

func (p *parser) isPunct(text string) bool {
	return p.cur().Kind == TokPunct && p.cur().Text == text
}

func (p *parser) isKeyword(text string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Text == text
}

func (p *parser) parseFile() (*File, error) {
	f := &File{}
	for p.cur().Kind != TokEOF {
		if !p.isKeyword("contract") {
			return nil, p.errf("expected 'contract', got %q", p.cur().Text)
		}
		c, err := p.parseContract()
		if err != nil {
			return nil, err
		}
		f.Contracts = append(f.Contracts, c)
	}
	return f, nil
}

func (p *parser) parseContract() (*ContractDecl, error) {
	p.advance() // contract
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := &ContractDecl{
		Name:      name,
		Structs:   map[string]*StructDecl{},
		Events:    map[string]*EventDecl{},
		Functions: map[string]*FuncDecl{},
	}
	startLine := p.cur().Line
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	// Pre-scan for struct names so types can reference them before
	// their declaration point.
	for i := p.pos; i < len(p.toks); i++ {
		if p.toks[i].Kind == TokKeyword && p.toks[i].Text == "struct" && i+1 < len(p.toks) {
			p.structNames[p.toks[i+1].Text] = true
		}
	}
	for !p.isPunct("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unterminated contract %s", name)
		}
		switch {
		case p.isKeyword("struct"):
			sd, err := p.parseStruct()
			if err != nil {
				return nil, err
			}
			c.Structs[sd.Name] = sd
		case p.isKeyword("event"):
			ed, err := p.parseEvent()
			if err != nil {
				return nil, err
			}
			c.Events[ed.Name] = ed
		case p.isKeyword("function") || p.isKeyword("constructor"):
			fd, err := p.parseFunction()
			if err != nil {
				return nil, err
			}
			c.Functions[fd.Name] = fd
		default:
			vd, err := p.parseVarDecl(true)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			c.StateVars = append(c.StateVars, vd)
		}
	}
	endLine := p.cur().Line
	p.advance() // }
	c.SourceLines = countSourceLines(p.src, startLine, endLine)
	return c, nil
}

// countSourceLines counts non-blank, non-comment-only lines in the
// inclusive line range — the usability LoC metric.
func countSourceLines(src string, from, to int) int {
	lines := strings.Split(src, "\n")
	n := 0
	for i := from; i <= to && i-1 < len(lines); i++ {
		s := strings.TrimSpace(lines[i-1])
		if s == "" || strings.HasPrefix(s, "//") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "/*") {
			continue
		}
		n++
	}
	return n
}

func (p *parser) parseStruct() (*StructDecl, error) {
	p.advance() // struct
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sd := &StructDecl{Name: name}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		vd, err := p.parseVarDecl(false)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, vd)
	}
	p.advance()
	return sd, nil
}

func (p *parser) parseEvent() (*EventDecl, error) {
	p.advance() // event
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ed := &EventDecl{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.isPunct(")") {
		vd, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		ed.Params = append(ed.Params, vd)
		if p.isPunct(",") {
			p.advance()
		}
	}
	p.advance()
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return ed, nil
}

func (p *parser) parseFunction() (*FuncDecl, error) {
	fd := &FuncDecl{Line: p.cur().Line, Visibility: "public"}
	if p.isKeyword("constructor") {
		p.advance()
		fd.Name = "constructor"
	} else {
		p.advance() // function
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		fd.Name = name
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.isPunct(")") {
		vd, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		fd.Params = append(fd.Params, vd)
		if p.isPunct(",") {
			p.advance()
		}
	}
	p.advance() // )
	for {
		switch {
		case p.isKeyword("public"), p.isKeyword("private"), p.isKeyword("internal"), p.isKeyword("external"):
			fd.Visibility = p.advance().Text
		case p.isKeyword("view"), p.isKeyword("pure"), p.isKeyword("payable"):
			p.advance()
		case p.isKeyword("returns"):
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			p.skipLocation()
			// An optional name for the return value is ignored.
			if p.cur().Kind == TokIdent {
				p.advance()
			}
			fd.ReturnType = ty
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		default:
			goto body
		}
	}
body:
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// parseParam parses "type location? name".
func (p *parser) parseParam() (*VarDecl, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	p.skipLocation()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &VarDecl{Name: name, Type: ty, Line: p.cur().Line}, nil
}

func (p *parser) skipLocation() {
	for p.isKeyword("memory") || p.isKeyword("storage") || p.isKeyword("calldata") {
		p.advance()
	}
}

// parseVarDecl parses "type location? name (= expr)?".
func (p *parser) parseVarDecl(allowInit bool) (*VarDecl, error) {
	line := p.cur().Line
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	p.skipLocation()
	// Visibility markers on state variables are accepted and ignored.
	for p.isKeyword("public") || p.isKeyword("private") || p.isKeyword("internal") {
		p.advance()
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	vd := &VarDecl{Name: name, Type: ty, Line: line}
	if allowInit && p.isPunct("=") {
		p.advance()
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = init
	}
	return vd, nil
}

// typeStart reports whether the current token can begin a type.
func (p *parser) typeStart() bool {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "uint", "uint256", "int", "int256", "bool", "string", "address", "bytes32", "mapping":
			return true
		}
		return false
	}
	return t.Kind == TokIdent && p.structNames[t.Text]
}

func (p *parser) parseType() (*Type, error) {
	t := p.cur()
	var base *Type
	switch {
	case t.Kind == TokKeyword:
		switch t.Text {
		case "uint", "uint256", "int", "int256":
			p.advance()
			base = &Type{Kind: "uint"}
		case "bool":
			p.advance()
			base = &Type{Kind: "bool"}
		case "string":
			p.advance()
			base = &Type{Kind: "string"}
		case "address":
			p.advance()
			base = &Type{Kind: "address"}
		case "bytes32":
			p.advance()
			base = &Type{Kind: "bytes32"}
		case "mapping":
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			key, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("=>"); err != nil {
				return nil, err
			}
			val, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			base = &Type{Kind: "mapping", Key: key, Elem: val}
		default:
			return nil, p.errf("expected type, got %q", t.Text)
		}
	case t.Kind == TokIdent && p.structNames[t.Text]:
		p.advance()
		base = &Type{Kind: "struct", Name: t.Text}
	default:
		return nil, p.errf("expected type, got %q", t.Text)
	}
	for p.isPunct("[") && p.peek().Kind == TokPunct && p.peek().Text == "]" {
		p.advance()
		p.advance()
		base = &Type{Kind: "array", Elem: base}
	}
	return base, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.isPunct("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance()
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("return"):
		p.advance()
		if p.isPunct(";") {
			p.advance()
			return &ReturnStmt{}, nil
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: v}, nil
	case p.isKeyword("require"):
		line := p.cur().Line
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		msg := "requirement failed"
		if p.isPunct(",") {
			p.advance()
			if p.cur().Kind != TokString {
				return nil, p.errf("require message must be a string literal")
			}
			msg = p.advance().Text
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &RequireStmt{Cond: cond, Msg: msg, Line: line}, nil
	case p.isKeyword("revert"):
		p.advance()
		msg := "reverted"
		if p.isPunct("(") {
			p.advance()
			if p.cur().Kind == TokString {
				msg = p.advance().Text
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &RevertStmt{Msg: msg}, nil
	case p.isKeyword("emit"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.isPunct(")") {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.isPunct(",") {
				p.advance()
			}
		}
		p.advance()
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &EmitStmt{Event: name, Args: args}, nil
	case p.isKeyword("break"):
		p.advance()
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{}, nil
	case p.isKeyword("continue"):
		p.advance()
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{}, nil
	case p.isKeyword("delete"):
		p.advance()
		target, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &DeleteStmt{Target: target}, nil
	case p.typeStart():
		vd, err := p.parseVarDecl(true)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &DeclStmt{Decl: vd}, nil
	}
	return p.parseSimpleStmt(true)
}

// parseSimpleStmt parses an assignment, inc/dec, or expression
// statement; when wantSemi is false (for-post position) no terminating
// semicolon is consumed.
func (p *parser) parseSimpleStmt(wantSemi bool) (Stmt, error) {
	line := p.cur().Line
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var stmt Stmt
	switch {
	case p.isPunct("=") || p.isPunct("+=") || p.isPunct("-=") || p.isPunct("*=") || p.isPunct("/="):
		op := p.advance().Text
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt = &AssignStmt{Target: x, Op: op, Value: v, Line: line}
	case p.isPunct("++"):
		p.advance()
		stmt = &AssignStmt{Target: x, Op: "+=", Value: &NumberLit{Value: 1}, Line: line}
	case p.isPunct("--"):
		p.advance()
		stmt = &AssignStmt{Target: x, Op: "-=", Value: &NumberLit{Value: 1}, Line: line}
	default:
		stmt = &ExprStmt{X: x}
	}
	if wantSemi {
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseIf() (Stmt, error) {
	p.advance() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.isKeyword("else") {
		p.advance()
		if p.isKeyword("if") {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.advance() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var init Stmt
	if !p.isPunct(";") {
		if p.typeStart() {
			vd, err := p.parseVarDecl(true)
			if err != nil {
				return nil, err
			}
			init = &DeclStmt{Decl: vd}
		} else {
			s, err := p.parseSimpleStmt(false)
			if err != nil {
				return nil, err
			}
			init = s
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var cond Expr
	if !p.isPunct(";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cond = c
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.isPunct(")") {
		s, err := p.parseSimpleStmt(false)
		if err != nil {
			return nil, err
		}
		post = s
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	p.advance() // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

// Expression parsing: precedence climbing.

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return left, nil
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			return left, nil
		}
		line := t.Line
		p.advance()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, L: left, R: right, Line: line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isPunct("!") || p.isPunct("-") {
		op := p.advance().Text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("["):
			line := p.cur().Line
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{Base: x, Index: idx, Line: line}
		case p.isPunct("."):
			line := p.cur().Line
			p.advance()
			field, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{Base: x, Field: field, Line: line}
		case p.isPunct("("):
			line := p.cur().Line
			p.advance()
			var args []Expr
			for !p.isPunct(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.isPunct(",") {
					p.advance()
				}
			}
			p.advance()
			x = &CallExpr{Callee: x, Args: args, Line: line}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		base := 10
		text := t.Text
		if strings.HasPrefix(text, "0x") {
			base = 16
			text = text[2:]
		}
		v, err := strconv.ParseInt(text, base, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &NumberLit{Value: v}, nil
	case t.Kind == TokString:
		p.advance()
		return &StringLit{Value: t.Text}, nil
	case t.Kind == TokKeyword && (t.Text == "true" || t.Text == "false"):
		p.advance()
		return &BoolLit{Value: t.Text == "true"}, nil
	case t.Kind == TokKeyword && t.Text == "new":
		p.advance()
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if elem.Kind != "array" {
			return nil, p.errf("new supports only array types")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &NewArrayExpr{Elem: elem.Elem, Len: n}, nil
	case t.Kind == TokIdent:
		p.advance()
		return &Ident{Name: t.Text, Line: t.Line}, nil
	case t.Kind == TokKeyword && t.Text == "address":
		// address(0) style casts: treat as identity function.
		p.advance()
		return &Ident{Name: "address", Line: t.Line}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("unexpected token %q", t.Text)
}
